package main

import (
	"context"
	"fmt"
	"time"

	"github.com/sparql-hsp/hsp/internal/algebra"
	"github.com/sparql-hsp/hsp/internal/core"
	"github.com/sparql-hsp/hsp/internal/exec"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/rewrite"
	"github.com/sparql-hsp/hsp/internal/sparql"
	"github.com/sparql-hsp/hsp/internal/store"
)

// Span names of the layer chain: the modules' own public functions, in
// the order the facade calls them.
const (
	spanParse     = "sparql.Parse"
	spanParameter = "sparql.Parameterize"
	spanRewrite   = "rewrite.Apply"
	spanPushdown  = "rewrite.PushFilters"
	spanPlan      = "core.Planner.PlanDetailed"
	spanCompile   = "exec.Engine.Compile"
	spanRun       = "exec.Run"
	spanDecode    = "exec.Compiled.DecodeRow"
	spanHandler   = "hspserve.Server.ServeHTTP"
	spanLoopback  = "hspserve.loopback"
	spanApply     = "store.Snapshot.Apply"
	spanSave      = "store.Snapshot.Save"
	spanAppend    = "wal.Log.AppendCommit"
)

// chainStats are the counters one layer-chain pass observed.
type chainStats struct {
	rows, notes, merge, hash int
	joinRowsIn               int64
}

func (c *chainStats) addTo(o *chainStats) {
	o.rows += c.rows
	o.notes += c.notes
	o.merge += c.merge
	o.hash += c.hash
	o.joinRowsIn += c.joinRowsIn
}

// compiledChain is a query compiled by the layer chain.
type compiledChain struct {
	branches []*exec.Compiled
	// binds are the lifted constants of a parameterized template,
	// keyed by canonical placeholder name; rename maps the caller's
	// placeholder names to the canonical ones.
	binds  map[string]rdf.Term
	rename map[string]string
	stats  chainStats
}

// compileChain drives a query text through parse, parameterize,
// rewrite, plan and compile over col, one span per call under parent.
// With template set it plans the parameterized template, as the
// plan-cached facade path does; otherwise the parsed query itself.
func compileChain(tr *tracer, op, parent int, col *store.Store, epoch uint64, text string, template bool) (*compiledChain, error) {
	var q *sparql.Query
	if err := tr.call(op, parent, spanParse, func() (err error) {
		q, err = sparql.Parse(text)
		return err
	}); err != nil {
		return nil, err
	}
	var tpl *sparql.Template
	tr.call(op, parent, spanParameter, func() error {
		tpl = sparql.Parameterize(q)
		return nil
	})
	out := &compiledChain{}
	if template {
		q = tpl.Query
		out.binds, out.rename = tpl.Binds, tpl.Rename
	}
	var notes []string
	tr.call(op, parent, spanRewrite, func() error {
		q, notes = rewrite.Apply(q, rewrite.All())
		return nil
	})
	out.stats.notes = len(notes)
	eng := exec.NewAt(exec.ColumnSource{St: col}, epoch)
	for _, branch := range q.Branches() {
		var res *core.Result
		if err := tr.call(op, parent, spanPlan, func() (err error) {
			res, err = core.NewPlanner().PlanDetailed(branch)
			return err
		}); err != nil {
			return nil, err
		}
		pl := res.Plan
		tr.call(op, parent, spanPushdown, func() error {
			var ns []string
			pl.Root, ns = rewrite.PushFilters(pl.Root)
			out.stats.notes += len(ns)
			return nil
		})
		m, h := algebra.CountJoins(pl.Root)
		out.stats.merge += m
		out.stats.hash += h
		var c *exec.Compiled
		if err := tr.call(op, parent, spanCompile, func() (err error) {
			c, err = eng.Compile(pl)
			return err
		}); err != nil {
			return nil, err
		}
		out.branches = append(out.branches, c)
	}
	return out, nil
}

// execBinds merges the caller's placeholder values, by caller name,
// with the template's lifted constants under the canonical names.
func (cc *compiledChain) execBinds(binds map[string]rdf.Term) map[string]rdf.Term {
	eb := make(map[string]rdf.Term, len(cc.binds)+len(binds))
	for k, v := range cc.binds {
		eb[k] = v
	}
	for k, v := range binds {
		if canon, ok := cc.rename[k]; ok {
			k = canon
		}
		eb[k] = v
	}
	return eb
}

// runChain runs every branch of a compiled query and decodes every
// row, recording the run's Next calls and the row decodes as two spans
// each accumulated over the interleaved calls. It returns the number
// of rows decoded.
func runChain(ctx context.Context, tr *tracer, op, parent int, cc *compiledChain, binds map[string]rdf.Term) (int, error) {
	eb := cc.execBinds(binds)
	rows := 0
	for _, c := range cc.branches {
		start := time.Now()
		var runDur, decDur time.Duration
		var decStart time.Time
		run := c.RunContext(ctx, exec.Options{Binds: eb})
		runDur += time.Since(start)
		for {
			t := time.Now()
			ok := run.Next()
			runDur += time.Since(t)
			if !ok {
				break
			}
			t = time.Now()
			if decStart.IsZero() {
				decStart = t
			}
			row := c.DecodeRow(run.Row())
			decDur += time.Since(t)
			if len(row) == 0 {
				run.Close()
				return rows, fmt.Errorf("decoded an empty row")
			}
			rows++
		}
		err := run.Err()
		run.Close()
		tr.add(op, parent, spanRun, start, runDur)
		if !decStart.IsZero() {
			tr.add(op, parent, spanDecode, decStart, decDur)
		}
		if err != nil {
			return rows, err
		}
	}
	return rows, nil
}

// countJoinRows runs every branch once more, untraced, with
// per-operator counters, and returns the rows every join consumed from
// its two inputs.
func countJoinRows(ctx context.Context, cc *compiledChain, binds map[string]rdf.Term) (int64, error) {
	eb := cc.execBinds(binds)
	var total int64
	for _, c := range cc.branches {
		n, err := joinRowsIn(ctx, c, eb)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// addRun adds one run's decoded rows and join input rows.
func (c *chainStats) addRun(rows int, joinRows int64) {
	c.rows += rows
	c.joinRowsIn += joinRows
}

// joinRowsIn runs c once more with per-operator counters and sums the
// rows every join consumed from its two inputs.
func joinRowsIn(ctx context.Context, c *exec.Compiled, binds map[string]rdf.Term) (int64, error) {
	run := c.RunContext(ctx, exec.Options{Binds: binds, Analyze: true})
	for run.Next() {
	}
	run.Close()
	if err := run.Err(); err != nil {
		return 0, err
	}
	m := run.Metrics()
	var n int64
	var walk func(algebra.Node)
	walk = func(nd algebra.Node) {
		if _, ok := nd.(*algebra.Join); ok {
			for _, ch := range nd.Children() {
				if om := m[ch]; om != nil {
					n += om.Rows
				}
			}
		}
		for _, ch := range nd.Children() {
			walk(ch)
		}
	}
	walk(c.Plan().Root)
	return n, nil
}

// facadeCalls lists the chain calls the facade itself makes: all of
// them without a plan cache; with one, a template hit parses and
// parameterizes a text (a statement executed by digest does neither)
// and runs the cached plan.
func facadeCalls(planCached bool) map[string]bool {
	if planCached {
		return map[string]bool{spanParse: true, spanParameter: true, spanRun: true, spanDecode: true}
	}
	return map[string]bool{spanParse: true, spanRewrite: true, spanPushdown: true, spanPlan: true,
		spanCompile: true, spanRun: true, spanDecode: true}
}

// chainMetrics turns the layer spans and counters of a traced pass
// into per-layer metrics: times are mean self times per call, plan
// counters are per compiled query, and join rows per operation.
// hsp.rows_self_ms is the facade's own cost: its time beyond the chain
// calls it makes itself.
func chainMetrics(tr *tracer, st chainStats, planCached bool) map[string]metric {
	self, count := tr.selfTimes()
	mean := func(name string) time.Duration {
		if count[name] == 0 {
			return 0
		}
		return self[name] / time.Duration(count[name])
	}
	perCompile := func(n int) float64 { return ratio(float64(n), float64(count[spanParse])) }
	return map[string]metric{
		"sparql.parse_us":        {us(mean(spanParse)), "us"},
		"sparql.parameterize_us": {us(mean(spanParameter)), "us"},
		"rewrite.apply_us":       {us(mean(spanRewrite)), "us"},
		"rewrite.notes":          {perCompile(st.notes), "count"},
		"core.plan_us":           {us(mean(spanPlan)), "us"},
		"core.merge_joins":       {perCompile(st.merge), "count"},
		"core.hash_joins":        {perCompile(st.hash), "count"},
		"exec.compile_us":        {us(mean(spanCompile)), "us"},
		"exec.run_ms":            {ms(mean(spanRun)), "ms"},
		"exec.join_rows_in":      {ratio(float64(st.joinRowsIn), float64(count[layersSpan])), "count"},
		"dict.decode_ns_per_row": {ratio(float64(self[spanDecode]), float64(st.rows)), "ns"},
		"hsp.rows_self_ms":       {ms(tr.facadeGap(facadeCalls(planCached))), "ms"},
	}
}
