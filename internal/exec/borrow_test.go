package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/sparql-hsp/hsp/internal/algebra"
	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/sparql"
	"github.com/sparql-hsp/hsp/internal/store"
)

// poisonID is an ID no test dictionary hands out.
const poisonID = dict.ID(1) << 62

// poisonIter is a test-double input that honours the iterator contract
// to the letter: it returns every row in one reused buffer and
// overwrites the previously returned row with poisonID before each
// Next. A consumer that reads a borrowed row after advancing past it
// sees poison, which either fails the run or shows up in its output.
type poisonIter struct {
	in  iterator
	buf Row
}

func (p *poisonIter) Next() bool {
	for i := range p.buf {
		p.buf[i] = poisonID
	}
	if !p.in.Next() {
		return false
	}
	p.buf = append(p.buf[:0], p.in.Row()...)
	return true
}

func (p *poisonIter) Row() Row   { return p.buf }
func (p *poisonIter) Err() error { return p.in.Err() }

// poisonOp feeds an operator's output through a poisonIter. Over an
// exchange it also poisons every stage input inside the morsel
// pipelines.
type poisonOp struct{ physOp }

func (o poisonOp) open(rt *runEnv) iterator {
	it := o.physOp.open(rt)
	if g, ok := it.(*gatherIter); ok {
		for i, stage := range g.stages {
			g.stages[i] = func(in iterator) iterator { return stage(&poisonIter{in: in}) }
		}
	}
	return &poisonIter{in: it}
}

// poisonPlan puts a poisonIter on every operator input of a compiled
// tree, recording which join shapes it saw. Hash builds lose their
// morsel-parallel path so they drain the poisoned input.
func poisonPlan(op physOp, seen map[string]bool) physOp {
	switch o := op.(type) {
	case *mergeJoinOp:
		seen["merge"] = true
		if len(o.shared) > 1 {
			seen["merge residual"] = true
		}
		o.l, o.r = poisonPlan(o.l, seen), poisonPlan(o.r, seen)
	case *hashJoinOp:
		switch {
		case o.leftOuter:
			seen["left join"] = true
		case len(o.keys) == 0:
			seen["cross"] = true
		default:
			seen["hash"] = true
		}
		o.build, o.probe = poisonPlan(o.build, seen), poisonPlan(o.probe, seen)
		o.morsel = nil
	case *filterOp:
		o.in = poisonPlan(o.in, seen)
	case *projectOp:
		o.in = poisonPlan(o.in, seen)
	case *sortOp:
		o.in = poisonPlan(o.in, seen)
	case *gatherOp:
		seen["exchange"] = true
		o.inner = poisonPlan(o.inner, seen)
		return poisonOp{o}
	}
	return poisonOp{op}
}

// borrowDataset is randomDataset's hub-shaped data, deduplicated: few
// subjects with many values each, so merge-join key groups repeat on
// both sides.
func borrowDataset(t *testing.T, seed int64) (*store.Store, []rdf.Triple) {
	t.Helper()
	b := store.NewBuilder(nil)
	seen := map[rdf.Triple]bool{}
	var uniq []rdf.Triple
	for _, tr := range randomDataset(seed, 300) {
		if !seen[tr] {
			seen[tr] = true
			uniq = append(uniq, tr)
		}
		b.Add(tr)
	}
	return b.Build(), uniq
}

// TestBorrowedRowsPoisoned drives every join iterator and the exchange
// with inputs that poison each row once it is superseded, comparing
// against the nested-loop oracles. The engines' own cross-checks (CDP
// on RDF-3X) run the same iterators, so only an independent oracle
// catches a stale borrowed row.
func TestBorrowedRowsPoisoned(t *testing.T) {
	queries := []string{
		// Merge joins on ?x with duplicate keys on both sides; ?y is a
		// residual shared slot.
		`SELECT * { ?x <http://p/a> ?y . ?x <http://p/b> ?y . ?x <http://p/c> ?z }`,
		`SELECT * { ?x <http://p/a> ?y . ?x <http://p/b> ?z . ?x <http://p/c> ?w }`,
		// A chain: the second join cannot merge.
		`SELECT * { ?x <http://p/a> ?y . ?y <http://p/b> ?z . ?z <http://p/c> ?w }`,
		// A cross product.
		`SELECT * { ?x <http://p/a> <http://e/1> . ?y <http://p/b> <http://e/2> }`,
		// OPTIONAL with matched and unmatched left rows.
		`SELECT * { ?x <http://p/a> ?y OPTIONAL { ?y <http://p/b> ?z } }`,
		`SELECT * { ?x <http://p/a> ?y . ?x <http://p/c> ?w OPTIONAL { ?y <http://p/b> ?z } }`,
		// A filtered scan: a shardable chain of its own.
		`SELECT * { ?x <http://p/a> ?y . FILTER (?y != <http://e/1>) }`,
	}
	seen := map[string]bool{}
	for _, seed := range []int64{1, 2, 3} {
		st, ts := borrowDataset(t, seed)
		eng := New(ColumnSource{St: st})
		for _, text := range queries {
			q, p := hspPlan(t, text)
			want := bruteForceOptional(ts, q)
			if len(q.Optionals) == 0 {
				want = bruteForce(ts, q)
			}
			for _, opts := range []Options{{}, {Parallelism: 2, ExchangeThreshold: 1}} {
				c, err := eng.Compile(p)
				if err != nil {
					t.Fatal(err)
				}
				c.root = poisonPlan(c.root, seen)
				res, err := c.ExecuteContext(context.Background(), opts)
				if err != nil {
					t.Fatalf("seed %d, %+v: %s: %v", seed, opts, text, err)
				}
				for _, r := range res.Rows {
					for _, id := range r {
						if id == poisonID {
							t.Fatalf("seed %d, %+v: %s: poisoned row %v in output", seed, opts, text, r)
						}
					}
				}
				if got := res.String(); got != want {
					t.Errorf("seed %d, %+v: %s:\ngot\n%swant\n%s", seed, opts, text, got, want)
				}
			}
		}
	}
	var shapes []string
	for s := range seen {
		shapes = append(shapes, s)
	}
	sort.Strings(shapes)
	for _, s := range []string{"cross", "exchange", "hash", "left join", "merge", "merge residual"} {
		if !seen[s] {
			t.Errorf("no plan exercised %s (saw %s)", s, strings.Join(shapes, ", "))
		}
	}
}

// TestBorrowedRowsPoisonedHandPlan covers a shape the planner does not
// produce on the random data: keyed hash joins, one with a residual
// shared slot, chained on the probe side so a parallel run scatters
// them through an exchange.
func TestBorrowedRowsPoisonedHandPlan(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "<http://s/%d> <http://p> <http://o/%d> .\n", i, i%97)
		if i%5 == 0 {
			fmt.Fprintf(&b, "<http://s/%d> <http://r> \"v%d\" .\n", i, i%3)
		}
	}
	for j := 0; j < 97; j++ {
		// s/(j+97k) points back at o/j; s/(j+1) does not, so the residual
		// check on ?s rejects it.
		for _, s := range []int{j, j + 97, j + 194, j + 1} {
			fmt.Fprintf(&b, "<http://o/%d> <http://q> <http://s/%d> .\n", j, s)
		}
	}
	ts, err := rdf.ParseNTriples(b.String())
	if err != nil {
		t.Fatal(err)
	}
	st := buildStore(t, b.String())
	q, err := sparql.Parse(`SELECT * WHERE { ?s <http://p> ?o . ?o <http://q> ?s . ?s <http://r> ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(i int) *algebra.Scan {
		s, err := algebra.NewScan(q.Patterns[i], store.PSO)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	j1, err := algebra.NewJoin(algebra.HashJoin, scan(1), scan(0), []sparql.Var{"o"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := algebra.NewJoin(algebra.HashJoin, scan(2), j1, []sparql.Var{"s"})
	if err != nil {
		t.Fatal(err)
	}
	root := &algebra.Project{In: j2, Cols: q.ProjectedVars()}
	plan := &algebra.Plan{Root: root, Query: q, Planner: "test"}
	want := bruteForce(ts, q)
	if strings.Count(want, "\n") < 10 {
		t.Fatalf("oracle has too few rows:\n%s", want)
	}
	seen := map[string]bool{}
	for _, opts := range []Options{{}, {Parallelism: 2, ExchangeThreshold: 1}} {
		c, err := New(ColumnSource{St: st}).Compile(plan)
		if err != nil {
			t.Fatal(err)
		}
		c.root = poisonPlan(c.root, seen)
		res, err := c.ExecuteContext(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.String(); got != want {
			t.Errorf("%+v:\ngot\n%swant\n%s", opts, got, want)
		}
	}
	if !seen["exchange"] || !seen["hash"] {
		t.Errorf("plan shapes seen: %v", seen)
	}
}

// TestRowSlab: slab copies survive their source's reuse, cannot be
// appended into a neighbour, and replay in copy order across chunks;
// zero-width rows are counted.
func TestRowSlab(t *testing.T) {
	var s rowSlab
	src := make(Row, 3)
	var copies []Row
	for i := range 3 * slabMinRows {
		for j := range src {
			src[j] = dict.ID(i*10 + j)
		}
		copies = append(copies, s.copyRow(src))
	}
	if len(s.chunks) < 2 {
		t.Fatalf("%d chunks, want several", len(s.chunks))
	}
	_ = append(copies[0], poisonID)
	i := 0
	for r := range s.all {
		if fmt.Sprint(r) != fmt.Sprint(Row{dict.ID(i * 10), dict.ID(i*10 + 1), dict.ID(i*10 + 2)}) {
			t.Fatalf("row %d = %v", i, r)
		}
		i++
	}
	if i != 3*slabMinRows {
		t.Fatalf("replayed %d rows", i)
	}
	var z rowSlab
	z.copyRow(Row{})
	z.copyRow(Row{})
	n := 0
	for range z.all {
		n++
	}
	if n != 2 {
		t.Fatalf("replayed %d zero-width rows, want 2", n)
	}
}
