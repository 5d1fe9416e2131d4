package exec

import (
	"fmt"
	"iter"
	"strings"

	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/sparql"
	"github.com/sparql-hsp/hsp/internal/store"
)

// Row is a tuple of variable bindings, indexed by compile-time slot
// number; dict.Invalid marks an unbound slot.
type Row []dict.ID

// iterator is the internal operator interface (bufio.Scanner style).
type iterator interface {
	// Next advances to the next row, returning false at the end of the
	// stream or on error.
	Next() bool
	// Row returns the current row; valid until the next call to Next.
	Row() Row
	// Err returns the first error encountered, if any.
	Err() error
}

// emptyIter yields nothing (e.g. a scan whose constant is absent).
type emptyIter struct{}

func (emptyIter) Next() bool { return false }
func (emptyIter) Row() Row   { return nil }
func (emptyIter) Err() error { return nil }

// --- scan ---

// scanIter evaluates one triple pattern over an access path. The
// constant prefix has been resolved to IDs; remaining positions map to
// row slots. Repeated variables within a pattern become equality checks.
type scanIter struct {
	in    TripleIter
	width int
	// slotOf[i] is the row slot of the i-th emitted component (the
	// components after the prefix), or -1 for a repeat occurrence that
	// must instead equal checkSlot[i].
	slotOf    []int
	checkSlot []int
	row       Row
}

func (s *scanIter) Next() bool {
	for {
		t, ok := s.in.Next()
		if !ok {
			return false
		}
		for i := range s.row {
			s.row[i] = dict.Invalid
		}
		ok = true
		for i, slot := range s.slotOf {
			v := t[len(t)-len(s.slotOf)+i]
			if slot >= 0 {
				s.row[slot] = v
			} else if s.row[s.checkSlot[i]] != v {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
}

func (s *scanIter) Row() Row   { return s.row }
func (s *scanIter) Err() error { return nil }

// aggScanIter evaluates a pattern over the aggregated pair index: the
// third position's unused variable is dropped, and each pair row is
// emitted count times to preserve SPARQL multiset semantics while
// decompressing only the (much smaller) aggregated index.
type aggScanIter struct {
	in      PairIter
	slotOf  [2]int // row slots of the two pair components (-1: unbound)
	row     Row
	pending uint64
	cur     [2]dict.ID
}

func (s *aggScanIter) Next() bool {
	for s.pending == 0 {
		x, y, count, ok := s.in.Next()
		if !ok {
			return false
		}
		s.cur = [2]dict.ID{x, y}
		s.pending = count
	}
	s.pending--
	for i := range s.row {
		s.row[i] = dict.Invalid
	}
	for i, slot := range s.slotOf {
		if slot >= 0 {
			s.row[slot] = s.cur[i]
		}
	}
	return true
}

func (s *aggScanIter) Row() Row   { return s.row }
func (s *aggScanIter) Err() error { return nil }

// --- order checking ---

// orderCheck wraps a merge-join input and verifies it really is sorted
// on the join slot, failing the query instead of mis-joining.
type orderCheck struct {
	in   iterator
	slot int
	desc string
	prev dict.ID
	seen bool
	err  error
}

func (o *orderCheck) Next() bool {
	if o.err != nil {
		return false
	}
	if !o.in.Next() {
		o.err = o.in.Err()
		return false
	}
	v := o.in.Row()[o.slot]
	if o.seen && v < o.prev {
		o.err = fmt.Errorf("exec: %s: input not sorted on join variable (%d after %d)", o.desc, v, o.prev)
		return false
	}
	o.prev, o.seen = v, true
	return true
}

func (o *orderCheck) Row() Row   { return o.in.Row() }
func (o *orderCheck) Err() error { return o.err }

// --- merge join ---

// mergeJoinIter joins two inputs sorted on the same slot. Input rows are
// borrowed, never copied, except for the group of equal keys on the
// right, which is copied back to back into one reusable buffer; every
// (left row, right row) combination that also agrees on the other
// shared slots is written into one reused output row.
type mergeJoinIter struct {
	l, r   iterator
	slot   int
	shared []int // all shared slots, for residual equality checks

	started  bool
	lRow     Row       // current left row, borrowed; nil when the left side is exhausted
	rNext    Row       // lookahead right row, borrowed; nil when exhausted
	group    []dict.ID // right rows whose key is groupKey, gw IDs each
	gw       int
	groupKey dict.ID
	gi       int  // offset of the next group row for the current left row
	inGroup  bool // lRow joins the buffered group
	out      Row
	err      error
}

// pull advances an input and borrows its row, recording its error
// state; nil means the input is exhausted.
func (m *mergeJoinIter) pull(it iterator) Row {
	if it.Next() {
		return it.Row()
	}
	if m.err == nil {
		m.err = it.Err()
	}
	return nil
}

func (m *mergeJoinIter) Next() bool {
	if m.err != nil {
		return false
	}
	if !m.started {
		m.started = true
		m.lRow = m.pull(m.l)
		m.rNext = m.pull(m.r)
		if m.err != nil {
			return false
		}
	}
	for {
		if m.inGroup {
			for m.gi < len(m.group) {
				r := Row(m.group[m.gi : m.gi+m.gw])
				m.gi += m.gw
				if out, ok := mergeRows(m.out, m.lRow, r, m.shared); ok {
					m.out = out
					return true
				}
			}
			// The current left row exhausted the group; the next left row
			// may carry the same key and re-join it.
			m.lRow = m.pull(m.l)
			if m.err != nil {
				return false
			}
			if m.lRow != nil && m.lRow[m.slot] == m.groupKey {
				m.gi = 0
				continue
			}
			m.inGroup = false
		}
		if m.lRow == nil || m.rNext == nil {
			return false
		}
		lk, rk := m.lRow[m.slot], m.rNext[m.slot]
		switch {
		case lk < rk:
			if m.lRow = m.pull(m.l); m.err != nil || m.lRow == nil {
				return false
			}
		case lk > rk:
			if m.rNext = m.pull(m.r); m.err != nil || m.rNext == nil {
				return false
			}
		default:
			// Copy the group out before advancing the right input, which
			// invalidates the borrowed lookahead.
			m.group = m.group[:0]
			m.gw = len(m.rNext)
			m.groupKey = rk
			for m.rNext != nil && m.rNext[m.slot] == rk {
				m.group = append(m.group, m.rNext...)
				m.rNext = m.pull(m.r)
				if m.err != nil {
					return false
				}
			}
			m.gi = 0
			m.inGroup = true
		}
	}
}

func (m *mergeJoinIter) Row() Row   { return m.out }
func (m *mergeJoinIter) Err() error { return m.err }

// --- hash join ---

// rowSlab copies rows into shared chunks, so retaining n rows costs a
// handful of allocations instead of n. Chunks grow with the rows held,
// from slabMinRows up to slabMaxRows rows each.
type rowSlab struct {
	chunks [][]dict.ID // in copy order; rows are carved from the last
	width  int
	rows   int
}

const (
	slabMinRows = 16
	slabMaxRows = 8192
)

// copyRow returns a copy of r carved from the slab. The copy's capacity
// ends at its length, so appending to it never reaches a neighbour.
func (s *rowSlab) copyRow(r Row) Row {
	s.width = len(r)
	s.rows++
	if n := len(s.chunks); n == 0 || len(s.chunks[n-1])+len(r) > cap(s.chunks[n-1]) {
		rows := min(max(s.rows, slabMinRows), slabMaxRows)
		s.chunks = append(s.chunks, make([]dict.ID, 0, rows*len(r)))
	}
	c := &s.chunks[len(s.chunks)-1]
	i := len(*c)
	*c = append(*c, r...)
	return (*c)[i:len(*c):len(*c)]
}

// all yields the slab's rows in copy order; the rows of one slab all
// have the same width (one operator's output).
func (s *rowSlab) all(yield func(Row) bool) {
	if s.width == 0 {
		for range s.rows {
			if !yield(Row{}) {
				return
			}
		}
		return
	}
	for _, c := range s.chunks {
		for i := 0; i < len(c); i += s.width {
			if !yield(c[i : i+s.width : i+s.width]) {
				return
			}
		}
	}
}

// keyHash hashes the IDs in a row's key slots. It is a bijection for a
// single key; rows without key slots (cross products, disconnected
// OPTIONALs) all hash to 0 and share one group.
func keyHash(r Row, keys []int) uint64 {
	var h uint64
	for _, s := range keys {
		h = (h ^ r[s]) * 0x9e3779b97f4a7c15
	}
	return h
}

// rowTable is the build side of a hash join: lookup returns the build
// rows whose key slots hold the same IDs as the probe row's, in build
// order. The sequential path builds one hashTable; the parallel path a
// shardedTable of them.
type rowTable interface {
	lookup(probe Row) []Row
	size() int
}

// hashTable indexes build rows by the IDs in their key slots, each
// key's rows laid out contiguously in build order, so a lookup returns
// a sub-slice without allocating. It is immutable once built.
type hashTable struct {
	keys   []int
	index  map[uint64]int32 // key hash → first group with that hash
	groups []tableGroup
	rows   []Row // grouped by key
}

// tableGroup is the set of build rows sharing one key.
type tableGroup struct {
	key        Row   // the group's first row, holding its key IDs
	next       int32 // next group with the same hash (a collision), or -1
	start, end int32 // the group's rows are rows[start:end]
}

// newHashTable indexes the rows that rows yields. It ranges over them
// twice, and they must come out the same both times: once to find each
// row's group, once to lay the groups out (a stable counting sort).
// Rows are referenced, not copied.
func newHashTable(keys []int, rows iter.Seq[Row]) *hashTable {
	t := &hashTable{keys: keys, index: map[uint64]int32{}}
	var gid []int32 // group of each row, in build order
	for r := range rows {
		h := keyHash(r, keys)
		g, head := t.group(r, h)
		if g < 0 {
			g = int32(len(t.groups))
			t.groups = append(t.groups, tableGroup{key: r, next: head})
			t.index[h] = g
		}
		t.groups[g].end++ // a row count until the layout pass
		gid = append(gid, g)
	}
	off := int32(0)
	for i := range t.groups {
		g := &t.groups[i]
		g.start, g.end, off = off, off, off+g.end
	}
	t.rows = make([]Row, len(gid))
	i := 0
	for r := range rows {
		g := &t.groups[gid[i]]
		t.rows[g.end] = r
		g.end++
		i++
	}
	return t
}

// sameKey reports whether two rows hold the same IDs in every key slot.
func sameKey(a, b Row, keys []int) bool {
	for _, s := range keys {
		if a[s] != b[s] {
			return false
		}
	}
	return true
}

// group returns the group whose key equals r's among the groups r's
// hash h selects, or -1, plus the first group with hash h (-1 if none).
func (t *hashTable) group(r Row, h uint64) (g, head int32) {
	head, ok := t.index[h]
	if !ok {
		return -1, -1
	}
	for g = head; g >= 0; g = t.groups[g].next {
		if sameKey(t.groups[g].key, r, t.keys) {
			return g, head
		}
	}
	return -1, head
}

// find returns the rows whose key equals the probe's, given its hash.
func (t *hashTable) find(probe Row, h uint64) []Row {
	g, _ := t.group(probe, h)
	if g < 0 {
		return nil
	}
	gr := &t.groups[g]
	return t.rows[gr.start:gr.end:gr.end]
}

func (t *hashTable) lookup(probe Row) []Row { return t.find(probe, keyHash(probe, t.keys)) }
func (t *hashTable) size() int              { return len(t.rows) }

// buildFn produces a hash-join build side.
type buildFn func() (rowTable, error)

// seqBuild drains an iterator into a slab and indexes it, the
// single-threaded build.
func seqBuild(in iterator, keys []int) buildFn {
	return func() (rowTable, error) {
		var slab rowSlab
		for in.Next() {
			slab.copyRow(in.Row())
		}
		return newHashTable(keys, slab.all), in.Err()
	}
}

// hashJoinIter builds a hash table over the left input on the join
// slots (none for a Cartesian product), then streams the right input,
// preserving its order. Probe rows are borrowed; output goes into one
// reused row.
type hashJoinIter struct {
	buildSide buildFn
	r         iterator
	shared    []int
	built     bool
	table     rowTable
	matches   []Row
	mIdx      int
	rRow      Row
	out       Row
	err       error
}

func (h *hashJoinIter) build() {
	h.built = true
	h.table, h.err = h.buildSide()
}

func (h *hashJoinIter) Next() bool {
	if !h.built {
		h.build()
	}
	if h.err != nil {
		return false
	}
	for {
		for h.mIdx < len(h.matches) {
			l := h.matches[h.mIdx]
			h.mIdx++
			if out, ok := mergeRows(h.out, l, h.rRow, h.shared); ok {
				h.out = out
				return true
			}
		}
		if !h.r.Next() {
			h.err = h.r.Err()
			return false
		}
		h.rRow = h.r.Row()
		h.matches = h.table.lookup(h.rRow)
		h.mIdx = 0
	}
}

func (h *hashJoinIter) Row() Row   { return h.out }
func (h *hashJoinIter) Err() error { return h.err }

// RowKey returns a compact identity key over every column of a row,
// the dedup key for DISTINCT handling (shared with the facade's
// cross-branch UNION deduplication).
func RowKey(r Row) string {
	var b strings.Builder
	b.Grow(len(r) * 8)
	for _, v := range r {
		for i := 0; i < 8; i++ {
			b.WriteByte(byte(v >> (8 * i)))
		}
	}
	return b.String()
}

// mergeRows combines a left and right row into dst (reusing its
// storage), requiring agreement on every shared slot bound on both
// sides. On a mismatch dst is returned unwritten.
func mergeRows(dst, l, r Row, shared []int) (Row, bool) {
	for _, s := range shared {
		if l[s] != dict.Invalid && r[s] != dict.Invalid && l[s] != r[s] {
			return dst, false
		}
	}
	dst = append(dst[:0], l...)
	for i, v := range r {
		if v != dict.Invalid {
			dst[i] = v
		}
	}
	return dst, true
}

// --- left outer join (OPTIONAL) ---

// leftJoinIter implements the OPTIONAL semantics: the right (optional)
// input is hashed; left rows stream through, emitting one output row
// per match, or themselves unchanged when nothing matches. Left rows
// are borrowed and never written to; matches are merged into buf.
type leftJoinIter struct {
	l         iterator
	buildSide buildFn
	shared    []int
	built     bool
	table     rowTable
	matches   []Row
	mIdx      int
	lRow      Row
	emitted   bool // whether the current left row produced any output
	buf       Row  // reused storage for merged rows
	out       Row
	err       error
}

func (h *leftJoinIter) build() {
	h.built = true
	h.table, h.err = h.buildSide()
}

func (h *leftJoinIter) Next() bool {
	if !h.built {
		h.build()
	}
	if h.err != nil {
		return false
	}
	for {
		for h.mIdx < len(h.matches) {
			r := h.matches[h.mIdx]
			h.mIdx++
			if buf, ok := mergeRows(h.buf, h.lRow, r, h.shared); ok {
				h.emitted = true
				h.buf, h.out = buf, buf
				return true
			}
		}
		if h.lRow != nil && !h.emitted {
			// No optional match: emit the left row as-is.
			h.emitted = true
			h.out = h.lRow
			return true
		}
		if !h.l.Next() {
			h.err = h.l.Err()
			return false
		}
		h.lRow = h.l.Row()
		h.emitted = false
		h.matches = h.table.lookup(h.lRow)
		h.mIdx = 0
	}
}

func (h *leftJoinIter) Row() Row   { return h.out }
func (h *leftJoinIter) Err() error { return h.err }

// --- filter ---

// filterIter evaluates a comparison FILTER.
type filterIter struct {
	in      iterator
	d       *dict.Dict
	op      sparql.CompareOp
	slot    int
	rSlot   int      // -1 when the right side is a constant
	rTerm   rdf.Term // constant right side
	rID     dict.ID  // dictionary ID of the constant (Invalid if absent)
	rInDict bool
}

func (f *filterIter) Next() bool {
	for f.in.Next() {
		if f.accept(f.in.Row()) {
			return true
		}
	}
	return false
}

func (f *filterIter) accept(r Row) bool {
	lv := r[f.slot]
	if lv == dict.Invalid {
		return false
	}
	if f.rSlot >= 0 {
		rv := r[f.rSlot]
		if rv == dict.Invalid {
			return false
		}
		return compareIDs(f.d, f.op, lv, rv)
	}
	switch f.op {
	case sparql.OpEq:
		return f.rInDict && lv == f.rID
	case sparql.OpNe:
		return !f.rInDict || lv != f.rID
	default:
		c := strings.Compare(f.d.Term(lv).Value, f.rTerm.Value)
		return opHolds(f.op, c)
	}
}

func (f *filterIter) Row() Row   { return f.in.Row() }
func (f *filterIter) Err() error { return f.in.Err() }

func compareIDs(d *dict.Dict, op sparql.CompareOp, a, b dict.ID) bool {
	switch op {
	case sparql.OpEq:
		return a == b
	case sparql.OpNe:
		return a != b
	default:
		return opHolds(op, strings.Compare(d.Term(a).Value, d.Term(b).Value))
	}
}

func opHolds(op sparql.CompareOp, cmp int) bool {
	switch op {
	case sparql.OpEq:
		return cmp == 0
	case sparql.OpNe:
		return cmp != 0
	case sparql.OpLt:
		return cmp < 0
	case sparql.OpLe:
		return cmp <= 0
	case sparql.OpGt:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

// --- projection ---

// projectIter narrows rows to the projection columns (slot list
// precomputed by the compiler, including alias duplicates).
type projectIter struct {
	in    iterator
	slots []int
	out   Row
}

func (p *projectIter) Next() bool {
	if !p.in.Next() {
		return false
	}
	r := p.in.Row()
	if p.out == nil {
		p.out = make(Row, len(p.slots))
	}
	for i, s := range p.slots {
		p.out[i] = r[s]
	}
	return true
}

func (p *projectIter) Row() Row   { return p.out }
func (p *projectIter) Err() error { return p.in.Err() }

var _ = store.S // keep store imported for doc references
