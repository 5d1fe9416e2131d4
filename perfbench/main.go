// Command perfbench is the repository's benchmark: it runs one of three
// closed-loop workloads against the HSP engine and prints every metric
// by name with its unit, as one JSON object on the last line of
// standard output.
//
//	perfbench --workload paper-mix|http-point|commit-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// no instrumentation: set-up time (median of several set-ups) and heap
// bytes and objects allocated per operation of a timed closed loop.
// With --trace 1 the run reports per-layer metrics: the same untraced
// loop's throughput and latency percentiles, then a shorter loop with
// spans (for trace.overhead_pct), then a fixed number of operations
// driven once through each module's public functions — every call a
// span — and once through the facade or server. The spans are kept in
// memory and written to the build directory at exit.
//
// Every operation's output is checked; a wrong output counts as a
// failed operation. See WORKLOADS.md for what each workload measures.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, since one set-up near a second spreads widely.
const setupReps = 3

// tailSamples is the fewest samples a p99 needs to have ten beyond it.
const tailSamples = 1000

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every dataset size; maxOps caps the timed loop.
	// Both exist for the smoke test, which runs a handful of operations
	// over small data; a benchmark run leaves them at 1 and 0.
	scale  float64
	maxOps int
	outDir string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of a run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses args, runs the workload and prints its report on stdout.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: paper-mix, http-point or commit-mix")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated data and request mix")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed loop, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.Float64Var(&o.scale, "scale", 1, "dataset size multiplier (smoke test only)")
	fs.IntVar(&o.maxOps, "max-ops", 0, "stop the timed loop after this many operations (smoke test only)")
	fs.StringVar(&o.outDir, "out", "", "directory for traces and temporary data (default $CARGO_TARGET_DIR or .bench_build)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 || o.scale <= 0 {
		return errors.New("--seconds and --scale must be positive")
	}
	if o.outDir == "" {
		o.outDir = os.Getenv("CARGO_TARGET_DIR")
	}
	if o.outDir == "" {
		o.outDir = ".bench_build"
	}
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want paper-mix, http-point or commit-mix)", o.workload)
	}
	if err := os.MkdirAll(o.outDir, 0o777); err != nil {
		return err
	}
	var err error
	if o.outDir, err = filepath.Abs(o.outDir); err != nil {
		return err
	}
	rep, err := measure(ctx, w, o, stderr)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// workload is one benchmark workload: set-up builds its environment,
// which then serves the timed loop and the traced pass.
type workload struct {
	// clients is the number of closed-loop clients.
	clients int
	// round is the length of the workload's fixed operation cycle; a
	// client stops only at a round boundary, so every run measures the
	// same mix.
	round int
	// window is how many operations of one client make a window.
	// ops_per_s, p50_ms and p99_ms are medians over windows, which a
	// burst of load from outside the benchmark moves less than figures
	// over the whole run.
	window int
	// kind is the latency class p50_ms and p99_ms report.
	kind string
	// setup generates the inputs and builds the system under test from
	// the seed, including one untimed warm pass.
	setup func(ctx context.Context, o options) (env, error)
}

// env is a set-up workload.
type env interface {
	// reference computes the expected outputs, once per run, outside
	// the set-up time.
	reference(ctx context.Context) error
	// op runs operation i of client c, timing it itself so output
	// checks stay outside the latency. kind names the latency class.
	op(ctx context.Context, c, i int) (kind string, lat time.Duration, err error)
	// finish runs the end-of-run checks.
	finish(ctx context.Context) error
	// traced drives n operations through the layers and the facade,
	// recording spans in tr, and returns the workload's per-layer
	// counters.
	traced(ctx context.Context, tr *tracer, n int) (map[string]metric, error)
	// traceOps is the number of operations the traced pass drives.
	traceOps() int
	close() error
}

// medianer is implemented by a workload whose pooled latencies have a
// gap at their middle, where the pooled median would jump between the
// tail of one cluster and the head of the next: it reports its own
// median latency instead.
type medianer interface {
	median() time.Duration
}

var workloads = map[string]workload{
	"paper-mix":  {clients: 1, round: 14, window: 28, kind: "query", setup: setupPaperMix},
	"http-point": {clients: 2, round: 2, window: 1000, kind: "request", setup: setupHTTPPoint},
	"commit-mix": {clients: 1, round: commitEvery, window: 2 * commitEvery * foldEvery, kind: "read", setup: setupCommitMix},
}

// measure sets the workload up, runs the timed loop and, in a traced
// run, the traced pass.
func measure(ctx context.Context, w workload, o options, stderr io.Writer) (*report, error) {
	reps := setupReps
	if o.trace {
		reps = 1 // set-up time is an end-to-end metric only
	}
	var setups []float64
	var e env
	for r := 0; r < reps; r++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			e = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		e, err = w.setup(ctx, o)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()
	if err := e.reference(ctx); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	fmt.Fprintf(stderr, "%s: set-up %.3fs (median of %v)\n", o.workload, median(setups), setups)

	rep := &report{Metrics: map[string]metric{}}
	lr, err := closedLoop(ctx, e, w, o, nil)
	if err != nil {
		return nil, err
	}
	lr.describe(stderr, o.workload)
	rep.Attempted, rep.Failed = lr.ops, lr.failed
	wall := wallMetrics(e, w, lr)
	if !o.trace {
		finish(ctx, e, rep, stderr)
		fmt.Fprintf(stderr, "%s: ops_per_s %.2f, p50_ms %.3f, p99_ms %.3f (reported with --trace 1)\n",
			o.workload, wall["ops_per_s"].Value, wall["p50_ms"].Value, wall["p99_ms"].Value)
		rep.Metrics["setup_s"] = metric{median(setups), "s"}
		rep.Metrics["alloc_kb_per_op"] = metric{float64(lr.allocBytes) / 1024 / float64(lr.ops), "KiB"}
		rep.Metrics["allocs_per_op"] = metric{float64(lr.mallocs) / float64(lr.ops), "count"}
		return rep, nil
	}

	// A shorter loop with an operation span and a facade span around
	// every operation, as in the traced pass: the tracing overhead.
	short := o
	short.seconds = o.seconds / 3
	spanned, err := closedLoop(ctx, e, w, short, newTracer())
	if err != nil {
		return nil, err
	}
	spanned.describe(stderr, o.workload+" (spans on)")
	rep.Attempted += spanned.ops
	rep.Failed += spanned.failed
	finish(ctx, e, rep, stderr)

	tr := newTracer()
	n := e.traceOps()
	if o.maxOps > 0 && n > o.maxOps {
		n = o.maxOps
	}
	layer, err := e.traced(ctx, tr, n)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	rep.Attempted += n
	path := filepath.Join(o.outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "%s: %d spans written to %s\n", o.workload, len(tr.spans), path)
	for _, name := range perLayerNames {
		rep.Metrics[name] = metric{0, perLayerUnits[name]}
	}
	for _, group := range []map[string]metric{layer, wall} {
		for name, m := range group {
			if _, ok := perLayerUnits[name]; !ok {
				return nil, fmt.Errorf("workload reported unlisted per-layer metric %q", name)
			}
			rep.Metrics[name] = m
		}
	}
	rep.Metrics["trace.overhead_pct"] = metric{(lr.opsPerSecond()/spanned.opsPerSecond() - 1) * 100, "%"}
	return rep, nil
}

// wallMetrics are the untraced loop's wall-clock figures: throughput,
// the main kind's median and p99 latency, and commit latency where the
// workload commits. On a small machine shared with other tenants they
// spread too widely between runs to gate a change (see WORKLOADS.md),
// so the traced run reports them with the per-layer metrics.
func wallMetrics(e env, w workload, lr *loopResult) map[string]metric {
	p50, p99 := lr.latency(w.kind, 0.50), lr.latency(w.kind, 0.99)
	if w.window < tailSamples {
		// Windows too short for a p99 of their own: quantiles of all
		// the run's latencies.
		p50, p99 = quantile(lr.lats[w.kind], 0.50), quantile(lr.lats[w.kind], 0.99)
	}
	if m, ok := e.(medianer); ok {
		p50 = m.median()
	}
	out := map[string]metric{
		"ops_per_s": {lr.opsPerSecond(), "1/s"},
		"p50_ms":    {ms(p50), "ms"},
		"p99_ms":    {ms(p99), "ms"},
	}
	if c := lr.lats["commit"]; len(c) > 0 {
		out["commit_p50_ms"] = metric{ms(quantile(c, 0.50)), "ms"}
		out["commit_p90_ms"] = metric{ms(quantile(c, 0.90)), "ms"}
	}
	return out
}

// finish runs the workload's end-of-run checks; a failed check is a
// failed operation and makes the run incorrect.
func finish(ctx context.Context, e env, rep *report, stderr io.Writer) {
	if err := e.finish(ctx); err != nil {
		fmt.Fprintf(stderr, "end-of-run check failed: %v\n", err)
		rep.Failed++
	}
	rep.Correct = rep.Failed == 0
}

// perLayerNames lists the per-layer metrics every traced run prints, in
// BENCHMARK.json order; a workload that does not reach a layer reports
// it as 0.
var perLayerNames []string

// perLayerUnits maps each per-layer metric to its unit.
var perLayerUnits = map[string]string{}

func init() {
	add := func(unit string, names ...string) {
		for _, n := range names {
			perLayerNames = append(perLayerNames, n)
			perLayerUnits[n] = unit
		}
	}
	add("1/s", "ops_per_s")
	add("ms", "p50_ms", "p99_ms")
	add("ms", "exec.run_ms")
	for _, q := range paperQueries() {
		add("ms", "exec.run_ms."+q.name)
	}
	add("count", "exec.join_rows_in", "exec.hash_build_rows", "exec.single_worker_exchanges")
	add("ns", "dict.decode_ns_per_row")
	add("ms", "hsp.rows_self_ms")
	add("us", "sparql.parse_us", "sparql.parameterize_us", "rewrite.apply_us")
	add("count", "rewrite.notes")
	add("us", "core.plan_us")
	add("count", "core.merge_joins", "core.hash_joins")
	add("us", "exec.compile_us")
	add("ratio", "exec.plancache.alias_hit_ratio", "exec.plancache.template_hit_ratio")
	add("count", "exec.plancache.invalidations")
	add("us", "hspserve.handler_us", "hspserve.wire_us", "hspserve.text_us", "hspserve.digest_us")
	add("count", "hspserve.registry_hits", "hspserve.rejected")
	add("ms", "store.apply_ms", "store.save_ms")
	add("count", "store.live_snapshots")
	add("us", "wal.append_us")
	add("B", "wal.bytes_per_commit")
	add("count", "wal.syncs_per_commit")
	add("ms", "commit_p50_ms", "commit_p90_ms")
	add("%", "trace.overhead_pct")
}

// loopResult is what the timed closed loop observed.
type loopResult struct {
	ops, failed int
	clients     int
	wall        time.Duration
	// allocBytes and mallocs are the heap bytes and objects allocated
	// during the loop, by every goroutine of the process.
	allocBytes, mallocs uint64
	// lats holds every operation's latency by kind, sorted.
	lats map[string][]time.Duration
	// windows holds every client's full windows.
	windows []window
}

// window is one client's run of w.window consecutive operations: its
// rate, and the latency quantiles of its operations of the workload's
// main kind.
type window struct {
	rate     float64
	p50, p99 time.Duration
}

// closedLoop runs w.clients closed-loop clients for o.seconds (or
// o.maxOps operations): each sends its next operation as soon as the
// previous one finished. With a tracer, every operation is recorded as
// an operation span around a facade span.
func closedLoop(ctx context.Context, e env, w workload, o options, tr *tracer) (*loopResult, error) {
	type clientResult struct {
		ops, failed int
		lats        map[string][]time.Duration
		windows     []window
		err         error
	}
	results := make([]clientResult, w.clients)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			res.lats = map[string][]time.Duration{}
			windowStart := time.Now()
			var windowLats []time.Duration
			for i := 0; ; i++ {
				if i > 0 && i%w.window == 0 {
					sort.Slice(windowLats, func(a, b int) bool { return windowLats[a] < windowLats[b] })
					res.windows = append(res.windows, window{
						rate: float64(w.window) / time.Since(windowStart).Seconds(),
						p50:  quantile(windowLats, 0.50),
						p99:  quantile(windowLats, 0.99),
					})
					windowStart, windowLats = time.Now(), windowLats[:0]
				}
				if o.maxOps > 0 && i*w.clients+c >= o.maxOps {
					return
				}
				if o.maxOps == 0 && i%w.round == 0 && !time.Now().Before(deadline) {
					return
				}
				var kind string
				var lat time.Duration
				var err error
				if tr != nil {
					op := i*w.clients + c
					root := tr.begin(op, -1, opSpan)
					f := tr.begin(op, root, facadeSpan)
					kind, lat, err = e.op(ctx, c, i)
					tr.end(f)
					tr.end(root)
				} else {
					kind, lat, err = e.op(ctx, c, i)
				}
				res.ops++
				if err != nil {
					if ctx.Err() != nil {
						res.err = ctx.Err()
						return
					}
					res.failed++
					if res.failed <= 3 {
						fmt.Fprintf(os.Stderr, "client %d op %d (%s) failed: %v\n", c, i, kind, err)
					}
					continue
				}
				res.lats[kind] = append(res.lats[kind], lat)
				if kind == w.kind {
					windowLats = append(windowLats, lat)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	lr := &loopResult{clients: w.clients, wall: wall, allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs: after.Mallocs - before.Mallocs, lats: map[string][]time.Duration{}}
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		lr.ops += r.ops
		lr.failed += r.failed
		lr.windows = append(lr.windows, r.windows...)
		for k, l := range r.lats {
			lr.lats[k] = append(lr.lats[k], l...)
		}
	}
	if lr.ops == 0 {
		return nil, errors.New("the timed loop ran no operation")
	}
	for _, l := range lr.lats {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	return lr, nil
}

// windowed reports whether the loop ran at least three full windows
// per client, enough for medians over windows.
func (lr *loopResult) windowed() bool { return len(lr.windows) >= 3*lr.clients }

// opsPerSecond is the clients times the median window rate, or the
// whole loop's rate when it ran too few windows.
func (lr *loopResult) opsPerSecond() float64 {
	if !lr.windowed() {
		return float64(lr.ops) / lr.wall.Seconds()
	}
	rates := make([]float64, len(lr.windows))
	for i, w := range lr.windows {
		rates[i] = w.rate
	}
	return float64(lr.clients) * median(rates)
}

// latency is the median over windows of the windows' q-quantile of the
// main kind's latency, or the q-quantile of all of them when the loop
// ran too few windows.
func (lr *loopResult) latency(kind string, q float64) time.Duration {
	if !lr.windowed() {
		return quantile(lr.lats[kind], q)
	}
	qs := make([]float64, len(lr.windows))
	for i, w := range lr.windows {
		qs[i] = float64(w.p50)
		if q == 0.99 {
			qs[i] = float64(w.p99)
		}
	}
	return time.Duration(median(qs))
}

// describe prints the loop's sample counts and quantiles on stderr, so
// a reader can check each percentile has ten samples beyond it.
func (lr *loopResult) describe(w io.Writer, name string) {
	fmt.Fprintf(w, "%s: %d ops (%d failed) in %.2fs, %.2f ops/s overall, %.2f median of %d windows\n",
		name, lr.ops, lr.failed, lr.wall.Seconds(), float64(lr.ops)/lr.wall.Seconds(), lr.opsPerSecond(), len(lr.windows))
	if len(lr.windows) > 0 {
		rates := make([]float64, len(lr.windows))
		for i, win := range lr.windows {
			rates[i] = win.rate
		}
		sort.Float64s(rates)
		q := func(f float64) float64 { return rates[int(f*float64(len(rates)-1))] }
		fmt.Fprintf(w, "  window rates (ops/s per client): min %.1f, p25 %.1f, p50 %.1f, p75 %.1f, max %.1f\n",
			q(0), q(0.25), q(0.5), q(0.75), q(1))
	}
	kinds := make([]string, 0, len(lr.lats))
	for k := range lr.lats {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		l := lr.lats[k]
		fmt.Fprintf(w, "  %-8s n=%-6d p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms\n", k, len(l),
			ms(quantile(l, 0.5)), ms(quantile(l, 0.9)), ms(quantile(l, 0.99)), ms(quantile(l, 1)))
	}
}
