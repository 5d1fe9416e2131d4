package exec

import (
	"testing"

	"github.com/sparql-hsp/hsp/internal/algebra"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
)

// TestAllocsConstantAcrossScale gates the copy-free row path: a
// compiled HSP plan over the column store must not allocate per row.
// The merge-join-only queries allocate exactly as much at 40k triples
// as at 10k; SP4a and SP4b, whose hash builds grow with the data, may
// add at most one allocation per 8 additional result rows.
func TestAllocsConstantAcrossScale(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	type measure struct {
		allocs float64
		rows   int
		hash   int
	}
	queries := map[string]string{}
	for _, q := range sp2bench.Queries() {
		queries[q.Name] = q.Text
	}
	run := func(scale int) map[string]measure {
		eng := New(ColumnSource{St: sp2bench.Generate(scale, 1)})
		out := map[string]measure{}
		for _, name := range []string{"SP2a", "SP2b", "SP3a", "SP3b", "SP3c", "SP4a", "SP4b"} {
			_, p := hspPlan(t, queries[name])
			c, err := eng.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			var m measure
			_, m.hash = algebra.CountJoins(p.Root)
			m.allocs = testing.AllocsPerRun(5, func() {
				r := c.Run(Options{})
				m.rows = 0
				for r.Next() {
					m.rows++
				}
				if err := r.Err(); err != nil {
					t.Fatal(err)
				}
				r.Close()
			})
			out[name] = m
		}
		return out
	}
	small, large := run(10000), run(40000)
	for _, name := range []string{"SP2a", "SP2b", "SP3a", "SP3b", "SP3c"} {
		s, l := small[name], large[name]
		if s.hash != 0 || l.hash != 0 {
			t.Fatalf("%s: plan has hash joins; the gate assumes merge joins only", name)
		}
		if l.allocs != s.allocs {
			t.Errorf("%s: %.0f allocs at 10k (%d rows), %.0f at 40k (%d rows); want equal",
				name, s.allocs, s.rows, l.allocs, l.rows)
		}
	}
	for _, name := range []string{"SP4a", "SP4b"} {
		s, l := small[name], large[name]
		extra := l.rows - s.rows
		if extra <= 0 {
			t.Fatalf("%s: %d rows at 10k, %d at 40k; want growth", name, s.rows, l.rows)
		}
		if grow := l.allocs - s.allocs; grow*8 > float64(extra) {
			t.Errorf("%s: +%.0f allocs for +%d rows; want at most one per 8 rows", name, grow, extra)
		}
	}
	for _, name := range []string{"SP2a", "SP2b", "SP3a", "SP3b", "SP3c", "SP4a", "SP4b"} {
		t.Logf("%s: %.0f allocs / %d rows at 10k, %.0f / %d at 40k",
			name, small[name].allocs, small[name].rows, large[name].allocs, large[name].rows)
	}
}
