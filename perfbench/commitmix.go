package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/sparql-hsp/hsp"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/store"
	"github.com/sparql-hsp/hsp/internal/wal"
)

// commit-mix's shape: dataset size in triples before scaling, the
// operation interleave, and the commit batch.
const (
	commitSP2Scale = 100000
	commitEvery    = 20 // every 20th operation is a commit
	foldEvery      = 50 // every 50th commit is followed by a fold
	batchSubjects  = 32 // two triples each: a 64-triple batch
)

// commitEnv is the set-up commit-mix workload: a durable dataset under
// SyncAlways, bulk-loaded with SP²Bench, and its one client's state.
type commitEnv struct {
	o     options
	root  string // temporary directory holding every file of the run
	dir   string // the durable dataset
	db    *hsp.DB
	batch []hsp.Triple

	// The fixed interleave: operations since the last commit, commits
	// since the interleave began, and whether the next operation is a
	// fold. commits counts every commit; its parity says whether the
	// batch is in.
	sinceCommit, cycle, commits int
	foldNext                    bool
	baseTriples                 int
	lastEpoch                   uint64

	// Filled by reference.
	titles []string
	want   map[string]string
	rng    *rand.Rand
	own    *ownChain
	// The plan-cache counters when the timed loop starts and ends.
	pcStart, pcEnd hsp.PlanCacheStats
}

// ownChain is the benchmark's own copy of the store and log layers the
// traced pass replays each commit and fold on: a snapshot chain over an
// independently generated copy of the data, and a write-ahead log
// under SyncAlways.
type ownChain struct {
	snap    *store.Snapshot
	log     *wal.Log
	dir     string
	ins     store.Delta
	del     store.Delta
	rec     *wal.Commit // the batch as a log record; Epoch set per commit
	deleted bool
}

func setupCommitMix(ctx context.Context, o options) (env, error) {
	if err := os.MkdirAll(filepath.Join(o.outDir, "tmp"), 0o777); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(filepath.Join(o.outDir, "tmp"), "commit-mix-")
	if err != nil {
		return nil, err
	}
	e := &commitEnv{o: o, root: root, dir: filepath.Join(root, "db"), batch: commitBatch(o.seed)}
	if err := e.open(); err != nil {
		e.close()
		return nil, err
	}
	if err := e.bulkLoad(ctx); err != nil {
		e.close()
		return nil, err
	}
	// Warm pass: a read, an insert and a delete of the batch, a read.
	for _, step := range []func() error{
		func() error { return e.read(ctx, warmTitle, warmYear) },
		func() error { return e.commit(ctx) },
		func() error { return e.commit(ctx) },
		func() error { return e.read(ctx, warmTitle, warmYear) },
	} {
		if err := step(); err != nil {
			e.close()
			return nil, fmt.Errorf("warm pass: %w", err)
		}
	}
	return e, nil
}

// open opens the durable dataset. Background compaction is off: the
// client folds, so no fold races a commit.
func (e *commitEnv) open() error {
	db, err := hsp.Open(e.dir, hsp.WithSyncPolicy(hsp.SyncAlways), hsp.WithCompactionThreshold(-1))
	if err != nil {
		return err
	}
	e.db = db
	return nil
}

// bulkLoad inserts a generated SP²Bench dataset in one transaction and
// folds it into a base snapshot.
func (e *commitEnv) bulkLoad(ctx context.Context) error {
	gen := hsp.GenerateSP2Bench(scaled(commitSP2Scale, e.o), e.o.seed)
	rows, err := gen.StreamContext(ctx, `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if err != nil {
		return err
	}
	txn, err := e.db.Update(ctx)
	if err != nil {
		rows.Close()
		return err
	}
	for rows.Next() {
		r := rows.Row()
		if err := txn.Insert(hsp.Triple{S: r["s"], P: r["p"], O: r["o"]}); err != nil {
			rows.Close()
			txn.Rollback()
			return err
		}
	}
	if err := rows.Close(); err != nil {
		txn.Rollback()
		return err
	}
	cs, err := txn.Commit(ctx)
	if err != nil {
		return err
	}
	e.baseTriples, e.lastEpoch = cs.Triples, cs.Epoch
	return e.db.Compact(ctx)
}

// commitBatch is the seeded 64-triple batch the commits alternately
// insert and delete: new documents with a title and a year each, so
// the dictionary stops growing after the first insert.
func commitBatch(seed int64) []hsp.Triple {
	rng := rand.New(rand.NewSource(seed))
	var out []hsp.Triple
	for k := 0; k < batchSubjects; k++ {
		s := hsp.IRI(fmt.Sprintf("http://localhost/perfbench/commit/%d/%d", seed, k))
		out = append(out,
			hsp.Triple{S: s, P: hsp.IRI(sp2bench.PredTitle), O: hsp.Literal(fmt.Sprintf("Committed document %d-%d", seed, k))},
			hsp.Triple{S: s, P: hsp.IRI(sp2bench.PredIssued), O: hsp.Literal(fmt.Sprint(1940 + rng.Intn(60)))})
	}
	return out
}

// reference reads titles and years from a separately generated copy of
// the data, checks the bulk load kept every triple, and builds the
// benchmark's own store and log layers for the traced pass.
func (e *commitEnv) reference(ctx context.Context) error {
	col := sp2bench.Generate(scaled(commitSP2Scale, e.o), e.o.seed)
	var err error
	if e.titles, e.want, err = titleYears(col); err != nil {
		return err
	}
	if e.baseTriples != col.NumTriples() {
		return fmt.Errorf("bulk load kept %d triples, generated %d", e.baseTriples, col.NumTriples())
	}
	e.rng = clientRNGs(e.o.seed, 1)[0]
	e.pcStart = e.db.PlanCacheStats()
	if e.o.trace {
		e.own, err = newOwnChain(filepath.Join(e.root, "own"), col, e.batch)
	}
	return err
}

func newOwnChain(dir string, col *store.Store, batch []hsp.Triple) (*ownChain, error) {
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	oc := &ownChain{snap: store.NewSnapshot(col, 0), log: log, dir: dir, rec: &wal.Commit{}, deleted: true}
	d := col.Dict()
	ix := map[rdf.Term]uint64{}
	term := func(t hsp.Triple, pos int) uint64 {
		v := []hsp.Term{t.S, t.P, t.O}[pos]
		var rt rdf.Term
		switch v.Kind {
		case "literal":
			rt = rdf.NewLiteral(v.Value)
		default:
			rt = rdf.NewIRI(v.Value)
		}
		i, ok := ix[rt]
		if !ok {
			i = uint64(len(oc.rec.Terms))
			ix[rt] = i
			oc.rec.Terms = append(oc.rec.Terms, rt)
		}
		return i
	}
	for _, t := range batch {
		tri := [3]uint64{term(t, 0), term(t, 1), term(t, 2)}
		s, p, o := d.EncodeTriple(rdf.Triple{S: oc.rec.Terms[tri[0]], P: oc.rec.Terms[tri[1]], O: oc.rec.Terms[tri[2]]})
		oc.ins.Inserts = append(oc.ins.Inserts, store.Triple{s, p, o})
		oc.del.Deletes = append(oc.del.Deletes, store.Triple{s, p, o})
		oc.rec.Inserts = append(oc.rec.Inserts, tri)
	}
	return oc, nil
}

// commit inserts the batch if it is absent and deletes it otherwise,
// in one transaction, and checks the commit's epoch and triple count.
func (e *commitEnv) commit(ctx context.Context) error {
	inserting := e.commits%2 == 0
	txn, err := e.db.Update(ctx)
	if err != nil {
		return err
	}
	for _, t := range e.batch {
		if inserting {
			err = txn.Insert(t)
		} else {
			err = txn.Delete(t)
		}
		if err != nil {
			txn.Rollback()
			return err
		}
	}
	cs, err := txn.Commit(ctx)
	if err != nil {
		return err
	}
	e.commits++
	want := e.baseTriples
	if inserting {
		want += len(e.batch)
	}
	if cs.Triples != want || e.db.NumTriples() != want || cs.Epoch != e.lastEpoch+1 {
		return fmt.Errorf("commit %d: %d triples at epoch %d, want %d at epoch %d",
			e.commits, cs.Triples, cs.Epoch, want, e.lastEpoch+1)
	}
	e.lastEpoch = cs.Epoch
	return nil
}

// read runs a point lookup through the plan cache and checks its year.
func (e *commitEnv) read(ctx context.Context, title, want string) error {
	st, err := e.db.Prepare(ctx, pointText(title), hsp.WithPlanCache(planCacheSize))
	if err != nil {
		return err
	}
	defer st.Close()
	return streamYear(ctx, st, nil, want)
}

// next advances the fixed interleave and names the next operation.
func (e *commitEnv) next() string {
	if e.foldNext {
		e.foldNext = false
		return "fold"
	}
	e.sinceCommit++
	if e.sinceCommit < commitEvery {
		return "read"
	}
	e.sinceCommit = 0
	e.cycle++
	e.foldNext = e.cycle%foldEvery == 0
	return "commit"
}

func (e *commitEnv) op(ctx context.Context, c, i int) (string, time.Duration, error) {
	kind := e.next()
	var title string
	if kind == "read" {
		title = e.titles[e.rng.Intn(len(e.titles))]
	}
	start := time.Now()
	var err error
	switch kind {
	case "read":
		err = e.read(ctx, title, e.want[title])
	case "commit":
		err = e.commit(ctx)
	default:
		err = e.db.Compact(ctx)
	}
	return kind, time.Since(start), err
}

// finish closes the dataset and reopens it: recovery must land on the
// last acknowledged epoch and triple count. The traced pass continues
// on the reopened dataset.
func (e *commitEnv) finish(ctx context.Context) error {
	e.pcEnd = e.db.PlanCacheStats()
	want := e.baseTriples
	if e.commits%2 == 1 {
		want += len(e.batch) // the batch is in
	}
	if err := e.db.Close(); err != nil {
		return err
	}
	if err := e.open(); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if e.db.Epoch() != e.lastEpoch || e.db.NumTriples() != want {
		return fmt.Errorf("reopen recovered epoch %d with %d triples, want epoch %d with %d",
			e.db.Epoch(), e.db.NumTriples(), e.lastEpoch, want)
	}
	return nil
}

// traceOps is one fold cycle: 50 commits, the reads between them and
// the fold.
func (e *commitEnv) traceOps() int { return commitEvery*foldEvery + 1 }

// traced follows the same interleave. A read runs the layer chain over
// the own snapshot chain, then the facade read. A commit runs the
// facade commit, then replays the batch through store.Snapshot.Apply on
// the own chain and wal.Log.AppendCommit on the own log. A fold runs
// DB.Compact, then store.Snapshot.Save of the own chain's head.
func (e *commitEnv) traced(ctx context.Context, tr *tracer, n int) (map[string]metric, error) {
	// The pass starts its own interleave and title draws, so its
	// counts depend on the seed alone.
	e.sinceCommit, e.cycle, e.foldNext = 0, 0, false
	e.rng = clientRNGs(e.o.seed+1, 1)[0]
	pcTrace := e.db.PlanCacheStats()
	durBefore := e.db.DurabilityStats()
	oc := e.own
	var total chainStats
	for op := 0; op < n; op++ {
		kind := e.next()
		root := tr.begin(op, -1, opSpan)
		switch kind {
		case "read":
			title := e.titles[e.rng.Intn(len(e.titles))]
			layers := tr.begin(op, root, layersSpan)
			cc, err := compileChain(tr, op, layers, oc.snap.Store(), oc.snap.Epoch(), pointText(title), true)
			if err != nil {
				return nil, err
			}
			cc.stats.addTo(&total)
			rows, err := runChain(ctx, tr, op, layers, cc, nil)
			tr.end(layers)
			if err != nil {
				return nil, err
			}
			if rows != 1 {
				return nil, fmt.Errorf("layer chain returned %d rows for %q", rows, title)
			}
			jr, err := countJoinRows(ctx, cc, nil)
			if err != nil {
				return nil, err
			}
			total.addRun(rows, jr)
			if err := tr.call(op, root, facadeSpan, func() error { return e.read(ctx, title, e.want[title]) }); err != nil {
				return nil, err
			}
		case "commit":
			if err := tr.call(op, root, facadeSpan, func() error { return e.commit(ctx) }); err != nil {
				return nil, err
			}
			layers := tr.begin(op, root, layersSpan)
			err := oc.commit(ctx, tr, op, layers)
			tr.end(layers)
			if err != nil {
				return nil, err
			}
		default:
			if err := tr.call(op, root, facadeSpan, func() error { return e.db.Compact(ctx) }); err != nil {
				return nil, err
			}
			layers := tr.begin(op, root, layersSpan)
			err := oc.save(tr, op, layers)
			tr.end(layers)
			if err != nil {
				return nil, err
			}
		}
		tr.end(root)
	}
	durAfter := e.db.DurabilityStats()
	m := chainMetrics(tr, total, true)
	for k, v := range planCacheMetrics(e.pcStart, e.pcEnd) {
		m[k] = v
	}
	m["exec.plancache.invalidations"] = metric{float64(e.db.PlanCacheStats().Invalidations - pcTrace.Invalidations), "count"}
	m["store.apply_ms"] = metric{ms(tr.meanDur(spanApply)), "ms"}
	m["store.save_ms"] = metric{ms(tr.meanDur(spanSave)), "ms"}
	m["wal.append_us"] = metric{us(tr.meanDur(spanAppend)), "us"}
	ls := oc.log.Stats()
	m["wal.bytes_per_commit"] = metric{ratio(float64(ls.Bytes), float64(ls.Commits)), "B"}
	m["wal.syncs_per_commit"] = metric{ratio(float64(durAfter.Syncs-durBefore.Syncs), float64(durAfter.Commits-durBefore.Commits)), "count"}
	runtime.GC()
	m["store.live_snapshots"] = metric{float64(e.db.StoreStats().LiveSnapshots), "count"}
	return m, nil
}

// commit replays one batch commit on the own chain: Apply the delta to
// the snapshot, then append the record to the log.
func (oc *ownChain) commit(ctx context.Context, tr *tracer, op, parent int) error {
	d := oc.ins
	if !oc.deleted {
		d = oc.del
	}
	var next *store.Snapshot
	if err := tr.call(op, parent, spanApply, func() (err error) {
		next, _, err = oc.snap.Apply(ctx, d)
		return err
	}); err != nil {
		return err
	}
	if next.Epoch() != oc.snap.Epoch()+1 {
		return fmt.Errorf("own chain: apply kept epoch %d", next.Epoch())
	}
	rec := *oc.rec
	rec.Epoch = next.Epoch()
	if !oc.deleted {
		rec.Inserts, rec.Deletes = nil, oc.rec.Inserts
	}
	if err := tr.call(op, parent, spanAppend, func() error { return oc.log.AppendCommit(&rec) }); err != nil {
		return err
	}
	oc.snap, oc.deleted = next, !oc.deleted
	return nil
}

// save writes the own chain's head snapshot to a file, as a fold does.
func (oc *ownChain) save(tr *tracer, op, parent int) error {
	f, err := os.Create(filepath.Join(oc.dir, "base.hsp"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tr.call(op, parent, spanSave, func() error { return oc.snap.Save(bw) }); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (e *commitEnv) close() error {
	var err error
	if e.own != nil {
		err = e.own.log.Close()
	}
	if e.db != nil {
		if cerr := e.db.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if rerr := os.RemoveAll(e.root); rerr != nil && err == nil {
		err = rerr
	}
	return err
}
