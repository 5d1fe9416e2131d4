package exec

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/store"
)

// Morsel-driven parallelism (Leis et al.): a hash-join build side that
// is a plain scan over a positional source is split into fixed-size
// morsels of the sorted relation; workers claim morsels via an atomic
// cursor, extract and hash-partition rows independently, and the
// partitions are assembled into a sharded table, one shard per worker
// in a second phase. Both phases visit morsels in index order per
// shard, so the table contents — and therefore join output — are
// byte-for-byte deterministic regardless of scheduling.

const (
	// morselRows is the number of relation rows one worker claims at a
	// time: large enough to amortise claiming, small enough to balance.
	morselRows = 8192
	// minParallelRows is the build size below which partitioning costs
	// more than it saves; smaller builds run sequentially.
	minParallelRows = 4096
)

// MorselSource is implemented by substrates whose scans are positional
// ranges over a sorted relation and can therefore be split into
// independently scannable morsels (the column store; the compressed
// B+-tree substrate streams pages and stays sequential).
type MorselSource interface {
	Source
	// ScanRange returns the half-open row bounds of the scan of o
	// matching prefix.
	ScanRange(o store.Ordering, prefix []dict.ID) (lo, hi int)
	// ScanSlice streams rows [lo, hi) of ordering o, permuted like Scan.
	ScanSlice(o store.Ordering, lo, hi int) TripleIter
}

// morselScan describes a partitionable build-side scan.
type morselScan struct {
	s   *scanOp
	src MorselSource
}

// shardedTable is the parallel-built rowTable: rows are distributed
// over power-of-two shards by key hash; probes address exactly one
// shard.
type shardedTable struct {
	shards []*hashTable
	mask   uint32
}

// shardOf selects a shard by the high bits of a key hash, the
// best-mixed bits of keyHash's multiplicative hash.
func shardOf(h uint64, mask uint32) uint32 { return uint32(h>>32) & mask }

func (t *shardedTable) lookup(probe Row) []Row {
	h := keyHash(probe, t.shards[0].keys)
	return t.shards[shardOf(h, t.mask)].find(probe, h)
}

func (t *shardedTable) size() int {
	n := 0
	for _, s := range t.shards {
		n += s.size()
	}
	return n
}

// shardCountFor picks a power-of-two shard count with headroom over the
// worker count, so phase 2 balances even with skewed keys.
func shardCountFor(workers int) uint32 {
	n := uint32(1)
	for n < uint32(4*workers) {
		n <<= 1
	}
	if n > 256 {
		n = 256
	}
	return n
}

// parallelBuild returns the build function running the two-phase
// partitioned build. Key-less builds (cross products and disconnected
// OPTIONALs) hash every row to 0, so one shard holds them all, in
// morsel order. sm, when non-nil, receives the scan's observed row
// count and wall time (the scan's own iterator is bypassed, so its
// metricIter never sees these rows).
func (ms *morselScan) parallelBuild(rt *runEnv, keys []int, sm *OpMetrics) buildFn {
	return func() (rowTable, error) {
		start := time.Now()
		prefix, ok, err := ms.s.resolvePrefix(rt)
		if err != nil {
			return nil, err
		}
		if !ok {
			// A bound term absent from the data: the build side is empty.
			return seqBuild(emptyIter{}, keys)()
		}
		lo, hi := ms.src.ScanRange(ms.s.s.Ordering, prefix)
		if hi-lo < minParallelRows {
			// Too small to be worth partitioning.
			return seqBuild(ms.seqIter(rt, lo, hi, sm), keys)()
		}
		workers := rt.opts.Parallelism
		nm := (hi - lo + morselRows - 1) / morselRows
		if workers > nm {
			workers = nm
		}
		nShards := shardCountFor(workers)

		// Phase 1: workers claim morsels and copy their rows out, one
		// slab per shard, so each shard's rows stay in scan order.
		parts := make([][]rowSlab, nm)
		var cursor int64
		var rows int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if !rt.acquire() {
						return // run closed
					}
					i := int(atomic.AddInt64(&cursor, 1)) - 1
					if i >= nm {
						rt.release()
						return
					}
					mLo := lo + i*morselRows
					mHi := mLo + morselRows
					if mHi > hi {
						mHi = hi
					}
					it := &scanIter{
						in:        ms.src.ScanSlice(ms.s.s.Ordering, mLo, mHi),
						row:       make(Row, ms.s.width),
						slotOf:    ms.s.slotOf,
						checkSlot: ms.s.checkSlot,
					}
					slabs := make([]rowSlab, nShards)
					for it.Next() {
						r := it.Row()
						slabs[shardOf(keyHash(r, keys), nShards-1)].copyRow(r)
					}
					n := 0
					for _, sl := range slabs {
						n += sl.rows
					}
					parts[i] = slabs
					atomic.AddInt64(&rows, int64(n))
					rt.release()
				}
			}()
		}
		wg.Wait()
		if rt.cancelled() {
			return nil, errClosed
		}
		if sm != nil {
			atomic.AddInt64(&sm.Rows, atomic.LoadInt64(&rows))
			sm.Wall += time.Since(start)
			sm.Parallel = true
		}

		// Phase 2: one worker per shard indexes that shard's rows, morsel
		// by morsel in index order, in its private table.
		t := &shardedTable{shards: make([]*hashTable, nShards), mask: nShards - 1}
		var shardCursor int64
		wg = sync.WaitGroup{}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if !rt.acquire() {
						return // run closed
					}
					s := int(atomic.AddInt64(&shardCursor, 1)) - 1
					if s >= int(nShards) {
						rt.release()
						return
					}
					t.shards[s] = newHashTable(keys, func(yield func(Row) bool) {
						for _, slabs := range parts {
							for r := range slabs[s].all {
								if !yield(r) {
									return
								}
							}
						}
					})
					rt.release()
				}
			}()
		}
		wg.Wait()
		if rt.cancelled() {
			return nil, errClosed
		}
		return t, nil
	}
}

// seqIter opens a plain sequential iterator over a sub-range, with the
// scan's analyze instrumentation when active.
func (ms *morselScan) seqIter(rt *runEnv, lo, hi int, sm *OpMetrics) iterator {
	it := iterator(&scanIter{
		in:        ms.src.ScanSlice(ms.s.s.Ordering, lo, hi),
		row:       make(Row, ms.s.width),
		slotOf:    ms.s.slotOf,
		checkSlot: ms.s.checkSlot,
	})
	if sm != nil {
		it = &metricIter{in: it, m: sm}
	}
	return it
}
