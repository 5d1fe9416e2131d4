package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/sparql-hsp/hsp"
	"github.com/sparql-hsp/hsp/internal/cdp"
	"github.com/sparql-hsp/hsp/internal/exec"
	"github.com/sparql-hsp/hsp/internal/rdf3x"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/sparql"
	"github.com/sparql-hsp/hsp/internal/stats"
	"github.com/sparql-hsp/hsp/internal/store"
	"github.com/sparql-hsp/hsp/internal/yago"
)

// Dataset sizes of paper-mix, in triples before scaling.
const (
	paperSP2Scale  = 200000
	paperYAGOScale = 100000
)

// paperQuery is one query of the paper's evaluation.
type paperQuery struct {
	name, text string
	yago       bool // runs over the YAGO dataset, not SP²Bench
}

// paperQueries lists the 10 SP²Bench and 4 YAGO queries in the paper's
// reporting order (Tables 7 and 8).
func paperQueries() []paperQuery {
	var out []paperQuery
	for _, q := range sp2bench.Queries() {
		out = append(out, paperQuery{name: q.Name, text: q.Text})
	}
	for _, q := range yago.Queries() {
		out = append(out, paperQuery{name: q.Name, text: q.Text, yago: true})
	}
	return out
}

// paperEnv is the set-up paper-mix workload: both datasets behind the
// facade with default options (HSP planner, monet engine, no plan
// cache), and — built once, untimed — an independent copy of the data
// for the reference row counts and the traced layer chain.
type paperEnv struct {
	o       options
	sp, yg  *hsp.DB
	queries []paperQuery
	// want holds each query's reference row count: the CDP planner on
	// the RDF-3X engine, the agreement check of Tables 7 and 8.
	want         []int
	spCol, ygCol *store.Store
	lats         [][]time.Duration // per query, for the stderr summary
}

func scaled(n int, o options) int { return max(int(float64(n)*o.scale), 1000) }

func setupPaperMix(ctx context.Context, o options) (env, error) {
	e := &paperEnv{
		o:       o,
		sp:      hsp.GenerateSP2Bench(scaled(paperSP2Scale, o), o.seed),
		yg:      hsp.GenerateYAGO(scaled(paperYAGOScale, o), o.seed),
		queries: paperQueries(),
	}
	e.lats = make([][]time.Duration, len(e.queries))
	for i := range e.queries {
		if _, err := e.stream(ctx, i); err != nil {
			return nil, fmt.Errorf("warm pass %s: %w", e.queries[i].name, err)
		}
	}
	return e, nil
}

// reference computes the expected row counts once per run, from a
// separately generated copy of the data, with the CDP planner on the
// RDF-3X engine. Like the paper's authors, it rewrites the one query
// CDP refuses (SP4a's cross product) with HSP's filter rewriting.
func (e *paperEnv) reference(ctx context.Context) error {
	e.spCol = sp2bench.Generate(scaled(paperSP2Scale, e.o), e.o.seed)
	e.ygCol = yago.Generate(scaled(paperYAGOScale, e.o), e.o.seed)
	spx, err := rdf3x.Build(e.spCol)
	if err != nil {
		return err
	}
	ygx, err := rdf3x.Build(e.ygCol)
	if err != nil {
		return err
	}
	for _, q := range e.queries {
		col, rx := e.spCol, spx
		if q.yago {
			col, rx = e.ygCol, ygx
		}
		parsed, err := sparql.Parse(q.text)
		if err != nil {
			return err
		}
		pl := cdp.New(stats.New(col), cdp.Options{UseAggregatedIndexes: true})
		plan, err := pl.Plan(parsed)
		if errors.Is(err, cdp.ErrCrossProduct) {
			rw, _ := sparql.RewriteFilters(parsed)
			plan, err = pl.Plan(rw)
		}
		if err != nil {
			return fmt.Errorf("reference plan %s: %w", q.name, err)
		}
		res, err := exec.NewAt(exec.RDF3XSource{St: rx}, 0).ExecuteContext(ctx, plan, exec.Options{})
		if err != nil {
			return fmt.Errorf("reference run %s: %w", q.name, err)
		}
		e.want = append(e.want, res.Len())
	}
	if !e.o.trace {
		e.spCol, e.ygCol = nil, nil // only the traced pass reads them
	}
	return nil
}

// stream runs query i through DB.Prepare → Stmt.Stream and drains the
// rows, returning how many there were.
func (e *paperEnv) stream(ctx context.Context, i int, opts ...hsp.ExecOption) (int, error) {
	q := e.queries[i]
	db := e.sp
	if q.yago {
		db = e.yg
	}
	st, err := db.Prepare(ctx, q.text, opts...)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	rows, err := st.Stream(ctx)
	if err != nil {
		return 0, err
	}
	n := 0
	for rows.Next() {
		if len(rows.Row()) == 0 {
			rows.Close()
			return n, errors.New("empty row")
		}
		n++
	}
	return n, rows.Close()
}

func (e *paperEnv) check(i, got int) error {
	if got != e.want[i] {
		return fmt.Errorf("%s returned %d rows, the reference %d", e.queries[i].name, got, e.want[i])
	}
	return nil
}

func (e *paperEnv) op(ctx context.Context, c, i int) (string, time.Duration, error) {
	qi := i % len(e.queries)
	start := time.Now()
	n, err := e.stream(ctx, qi)
	lat := time.Since(start)
	if err == nil {
		err = e.check(qi, n)
	}
	e.lats[qi] = append(e.lats[qi], lat)
	return "query", lat, err
}

// median is the median of the queries' own median latencies. The 14
// queries take from 0.2 ms to 60 ms, so the pooled median of a round
// robin falls between the seventh and the eighth query.
func (e *paperEnv) median() time.Duration {
	var meds []float64
	for _, l := range e.lats {
		l = append([]time.Duration(nil), l...)
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		meds = append(meds, float64(quantile(l, 0.5)))
	}
	return time.Duration(median(meds))
}

func (e *paperEnv) finish(ctx context.Context) error {
	var b strings.Builder
	for i, l := range e.lats {
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		fmt.Fprintf(&b, " %s=%.2fms", e.queries[i].name, ms(quantile(l, 0.5)))
	}
	fmt.Fprintf(os.Stderr, "paper-mix per-query p50:%s\n", b.String())
	return nil
}

func (e *paperEnv) traceOps() int { return 5 * len(e.queries) }

// traced drives each query through the layer chain over the reference
// copy of the data and then through the facade.
func (e *paperEnv) traced(ctx context.Context, tr *tracer, n int) (map[string]metric, error) {
	var total chainStats
	var hashBuild, singleWorker int64
	sink := hsp.WithMetricsSink(func(s hsp.OpStats) {
		if strings.HasPrefix(s.Op, "⋈hj") {
			hashBuild += s.Build
		}
		if strings.HasPrefix(s.Op, "exchange") && s.Workers == 1 {
			singleWorker++
		}
	})
	runByQuery := make([]time.Duration, len(e.queries))
	runCount := make([]int, len(e.queries))
	for op := 0; op < n; op++ {
		qi := op % len(e.queries)
		q := e.queries[qi]
		col := e.spCol
		if q.yago {
			col = e.ygCol
		}
		root := tr.begin(op, -1, opSpan)
		layers := tr.begin(op, root, layersSpan)
		cc, err := compileChain(tr, op, layers, col, 0, q.text, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		cc.stats.addTo(&total)
		rows, err := runChain(ctx, tr, op, layers, cc, nil)
		tr.end(layers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		if err := e.check(qi, rows); err != nil {
			return nil, fmt.Errorf("layer chain: %w", err)
		}
		jr, err := countJoinRows(ctx, cc, nil)
		if err != nil {
			return nil, err
		}
		total.addRun(rows, jr)
		f := tr.begin(op, root, facadeSpan)
		got, err := e.stream(ctx, qi)
		tr.end(f)
		tr.end(root)
		if err == nil {
			err = e.check(qi, got)
		}
		if err != nil {
			return nil, fmt.Errorf("facade: %w", err)
		}
		// The operator counters come from one more, untimed, facade run:
		// the metrics sink instruments every operator.
		if _, err := e.stream(ctx, qi, sink); err != nil {
			return nil, fmt.Errorf("facade with metrics sink: %w", err)
		}
		runByQuery[qi] += tr.opDur(op, spanRun) // a leaf span: its duration is its self time
		runCount[qi]++
	}
	m := chainMetrics(tr, total, false)
	for i, q := range e.queries {
		m["exec.run_ms."+q.name] = metric{ms(runByQuery[i]) / float64(max(runCount[i], 1)), "ms"}
	}
	m["exec.hash_build_rows"] = metric{float64(hashBuild) / float64(n), "count"}
	m["exec.single_worker_exchanges"] = metric{float64(singleWorker) / float64(n), "count"}
	return m, nil
}

func (e *paperEnv) close() error { return nil }
