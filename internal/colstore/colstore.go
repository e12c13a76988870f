// Package colstore maintains contiguous columnar copies of the descriptor
// vectors held by a shapedb.DB, one store per feature kind.
//
// A Store lays the snapshot out structure-of-arrays style: an id column,
// one flat []float64 per feature dimension, and one quantized []uint8 per
// dimension (a 256-cell scalar grid in the spirit of the VA-file). The
// float columns make the exact weighted-distance kernel a tight
// cache-friendly loop; the byte columns drive a cheap coarse filter whose
// per-dimension cell distance is a provable lower bound on the true
// per-dimension distance, so a two-stage top-k search can prune most rows
// and still return exactly the results an exhaustive scan would. An
// STR-packed R-tree over the rows answers top-k directly while it covers
// every row, and seeds the coarse filter's bound after appends.
//
// Stores are immutable once published. A Manager watches the owning DB
// (via Version / CommitNotify) and republishes per-kind stores when the
// record set mutates, appending in place when the snapshot merely grew and
// rebuilding from scratch otherwise.
package colstore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"threedess/internal/features"
	"threedess/internal/rtree"
	"threedess/internal/shapedb"
	"threedess/internal/workpool"
)

const (
	// qCells is the number of quantization cells per dimension. One byte
	// per dimension per row keeps the coarse pass at ~dim bytes of memory
	// traffic per row instead of ~8*dim.
	qCells = 256

	// blockRows is the unit of work for the coarse filter: lower bounds
	// are accumulated column-at-a-time into a reusable buffer of this many
	// rows, and cancellation is checked between blocks.
	blockRows = 1024

	// rebuildAppendFrac forces a full rebuild (fresh quantization grid and
	// R-tree) once the rows appended since the last full build exceed this
	// fraction of the tree's coverage. Appended rows are clamped into the
	// existing grid (still safe — edge cells are half-infinite) and are
	// invisible to the seeding tree (still safe — a subset k-th distance
	// only loosens the bound), so this is a performance knob, not a
	// correctness one.
	rebuildAppendFrac = 4 // rebuild when appended > treeRows/4
)

// Candidate is one row surviving a store search, resolved back to its
// snapshot record. Dist is bit-identical to core.WeightedDistance over the
// same vectors: both accumulate w[d]*diff^2 in ascending dimension order
// and take a single square root.
type Candidate struct {
	Rec  *shapedb.Record
	Dist float64
}

// Stats reports how much work a single search actually did, for tests and
// benchmark introspection.
type Stats struct {
	Rows       int  // rows in the store
	ExactEvals int  // rows that needed the exact kernel
	TreeSeeded bool // whether the R-tree supplied the k-th distance
}

// Store is an immutable columnar snapshot of every record carrying one
// feature kind, ordered by ascending record ID.
type Store struct {
	kind    features.Kind
	dim     int
	version int64 // shapedb.DB.Version at snapshot time

	ids  []int64           // id column, ascending
	recs []*shapedb.Record // recs[i] owns ids[i]; aligned with the columns
	cols [][]float64       // cols[d][i] = dimension d of row i

	// Quantized mirror of cols. Cell c of dimension d covers
	// [qlo[d]+c*qstep[d], qlo[d]+(c+1)*qstep[d]] with cells 0 and
	// qCells-1 extended to -Inf/+Inf so rows appended outside the
	// original grid still quantize safely.
	qcols [][]uint8
	qlo   []float64
	qstep []float64

	// tree is an STR-packed R-tree over rows [0, treeRows). While it
	// covers every row it answers top-k queries; after an incremental
	// append it covers a prefix and only seeds the scan's pruning bound.
	// nil when the kind has no rows.
	tree     *rtree.Tree
	treeRows int
}

// Kind returns the feature kind this store indexes.
func (s *Store) Kind() features.Kind { return s.kind }

// Dim returns the dimensionality of the indexed vectors.
func (s *Store) Dim() int { return s.dim }

// Len returns the number of rows.
func (s *Store) Len() int { return len(s.ids) }

// Version returns the DB mutation counter the snapshot was taken at.
func (s *Store) Version() int64 { return s.version }

// IDs returns a copy of the id column.
func (s *Store) IDs() []int64 {
	out := make([]int64, len(s.ids))
	copy(out, s.ids)
	return out
}

// Records returns the snapshot records backing the rows, in row order.
// Callers must not mutate the returned records.
func (s *Store) Records() []*shapedb.Record {
	out := make([]*shapedb.Record, len(s.recs))
	copy(out, s.recs)
	return out
}

// build constructs a store for kind from a snapshot. prev, when non-nil
// and still a row-for-row prefix of the new snapshot (pointer identity),
// donates its quantization grid and seeding tree so only the appended
// suffix is processed.
func build(kind features.Kind, dim int, recs []*shapedb.Record, version int64, prev *Store) (*Store, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("colstore: feature kind %v has no dimensionality", kind)
	}
	rows := make([]*shapedb.Record, 0, len(recs))
	for _, rec := range recs {
		if _, ok := rec.Features[kind]; ok {
			rows = append(rows, rec)
		}
	}
	if prev != nil && prev.dim == dim && prev.canAppend(rows) {
		return prev.appendRows(rows, version)
	}
	s := &Store{
		kind:    kind,
		dim:     dim,
		version: version,
		ids:     make([]int64, len(rows)),
		recs:    rows,
		cols:    make([][]float64, dim),
		qcols:   make([][]uint8, dim),
		qlo:     make([]float64, dim),
		qstep:   make([]float64, dim),
	}
	for d := 0; d < dim; d++ {
		s.cols[d] = make([]float64, len(rows))
		s.qcols[d] = make([]uint8, len(rows))
	}
	for i, rec := range rows {
		v := rec.Features[kind]
		if len(v) != dim {
			return nil, fmt.Errorf("colstore: record %d has %d-dim %v vector, want %d", rec.ID, len(v), kind, dim)
		}
		s.ids[i] = rec.ID
		for d := 0; d < dim; d++ {
			s.cols[d][i] = v[d]
		}
	}
	for d := 0; d < dim; d++ {
		s.buildGrid(d)
	}
	if err := s.buildTree(); err != nil {
		return nil, err
	}
	return s, nil
}

// canAppend reports whether rows extends this store's rows by pointer
// identity, and the appended tail is small enough to skip a full rebuild.
func (s *Store) canAppend(rows []*shapedb.Record) bool {
	if len(rows) < len(s.recs) {
		return false
	}
	for i, rec := range s.recs {
		if rows[i] != rec {
			return false
		}
	}
	appended := len(rows) - s.treeRows
	return appended <= maxInt(blockRows, s.treeRows/rebuildAppendFrac)
}

// appendRows publishes a new store sharing s's grid and tree, with the
// suffix of rows quantized into the existing (half-infinite-edged) grid.
func (s *Store) appendRows(rows []*shapedb.Record, version int64) (*Store, error) {
	n := len(rows)
	ns := &Store{
		kind:     s.kind,
		dim:      s.dim,
		version:  version,
		ids:      make([]int64, n),
		recs:     rows,
		cols:     make([][]float64, s.dim),
		qcols:    make([][]uint8, s.dim),
		qlo:      s.qlo,
		qstep:    s.qstep,
		tree:     s.tree,
		treeRows: s.treeRows,
	}
	copy(ns.ids, s.ids)
	for d := 0; d < s.dim; d++ {
		ns.cols[d] = make([]float64, n)
		copy(ns.cols[d], s.cols[d])
		ns.qcols[d] = make([]uint8, n)
		copy(ns.qcols[d], s.qcols[d])
	}
	for i := len(s.recs); i < n; i++ {
		rec := rows[i]
		v := rec.Features[ns.kind]
		if len(v) != ns.dim {
			return nil, fmt.Errorf("colstore: record %d has %d-dim %v vector, want %d", rec.ID, len(v), ns.kind, ns.dim)
		}
		ns.ids[i] = rec.ID
		for d := 0; d < ns.dim; d++ {
			ns.cols[d][i] = v[d]
			ns.qcols[d][i] = ns.quantize(d, v[d])
		}
	}
	return ns, nil
}

// buildGrid derives dimension d's quantization grid from its column and
// fills the byte column.
func (s *Store) buildGrid(d int) {
	col := s.cols[d]
	if len(col) == 0 {
		s.qlo[d], s.qstep[d] = 0, 0
		return
	}
	lo, hi := col[0], col[0]
	for _, v := range col[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	s.qlo[d] = lo
	s.qstep[d] = (hi - lo) / qCells
	qc := s.qcols[d]
	for i, v := range col {
		qc[i] = s.quantize(d, v)
	}
}

// quantize maps v into a cell of dimension d's grid and then nudges the
// cell until the cell's own boundary arithmetic — the exact expressions
// the query LUT evaluates — provably contains v. Without the fix-up a
// rounded multiply could park v one cell high or low, making the "lower
// bound" overshoot the true distance and prune a legitimate result.
func (s *Store) quantize(d int, v float64) uint8 {
	lo, step := s.qlo[d], s.qstep[d]
	c := 0
	if step > 0 {
		c = int((v - lo) / step)
		if c < 0 {
			c = 0
		} else if c > qCells-1 {
			c = qCells - 1
		}
	}
	for c > 0 && lo+float64(c)*step > v {
		c--
	}
	for c < qCells-1 && lo+float64(c+1)*step < v {
		c++
	}
	return uint8(c)
}

// buildTree STR-packs an R-tree over every row.
func (s *Store) buildTree() error {
	s.treeRows = len(s.ids)
	if len(s.ids) == 0 {
		s.tree = nil
		return nil
	}
	items := make([]rtree.BulkItem, len(s.ids))
	buf := make([]float64, len(s.ids)*s.dim)
	for i, id := range s.ids {
		p := buf[i*s.dim : (i+1)*s.dim]
		for d := 0; d < s.dim; d++ {
			p[d] = s.cols[d][i]
		}
		items[i] = rtree.BulkItem{ID: id, Point: p}
	}
	tr, err := rtree.BulkLoad(s.dim, rtree.DefaultMaxEntries, items)
	if err != nil {
		return err
	}
	s.tree = tr
	return nil
}

// rowOf returns the row index of record id, or -1.
func (s *Store) rowOf(id int64) int {
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= id })
	if i < len(s.ids) && s.ids[i] == id {
		return i
	}
	return -1
}

// DistSq computes the squared weighted distance from q to row, with the
// same ascending-dimension accumulation order as core.WeightedDistance so
// math.Sqrt of the result is bit-identical to the exact-scan distance.
// A nil w means unit weights.
func (s *Store) DistSq(row int, q, w []float64) float64 {
	sum := 0.0
	if w == nil {
		for d := 0; d < s.dim; d++ {
			diff := q[d] - s.cols[d][row]
			sum += diff * diff
		}
		return sum
	}
	for d := 0; d < s.dim; d++ {
		diff := q[d] - s.cols[d][row]
		sum += w[d] * diff * diff
	}
	return sum
}

// buildLUT materializes the per-query lookup table: lut[d*qCells+c] is the
// weighted squared distance from q[d] to the nearest point of cell c, a
// lower bound on w[d]*(q[d]-x[d])^2 for every x quantized into that cell.
func (s *Store) buildLUT(q, w []float64) []float64 {
	lut := make([]float64, s.dim*qCells)
	for d := 0; d < s.dim; d++ {
		lo, step := s.qlo[d], s.qstep[d]
		wd := 1.0
		if w != nil {
			wd = w[d]
		}
		qd := q[d]
		row := lut[d*qCells : (d+1)*qCells]
		for c := 0; c < qCells; c++ {
			var diff float64
			if c > 0 { // cell 0 extends to -Inf
				if cellLo := lo + float64(c)*step; qd < cellLo {
					diff = cellLo - qd
				}
			}
			if c < qCells-1 { // top cell extends to +Inf
				if cellHi := lo + float64(c+1)*step; qd > cellHi {
					diff = qd - cellHi
				}
			}
			row[c] = wd * diff * diff
		}
	}
	return lut
}

// CoarseLowerBound2 evaluates the quantized lower bound for a single row
// the same way the block scan does. Exposed so property tests can assert
// bound safety (lb^2 <= true dist^2) row by row.
func (s *Store) CoarseLowerBound2(row int, q, w []float64) float64 {
	lut := s.buildLUT(q, w)
	sum := 0.0
	for d := 0; d < s.dim; d++ {
		sum += lut[d*qCells+int(s.qcols[d][row])]
	}
	return sum
}

func (s *Store) checkQuery(q, w []float64) error {
	if len(q) != s.dim {
		return fmt.Errorf("colstore: query has %d dims, store %v has %d", len(q), s.kind, s.dim)
	}
	if w != nil && len(w) != s.dim {
		return fmt.Errorf("colstore: weights have %d dims, store %v has %d", len(w), s.kind, s.dim)
	}
	return nil
}

// topkHeap is a bounded max-heap of (dist, row) pairs ordered by
// (dist, id) so the retained set matches the exact scan's tie-break. The
// key is a distance, not its square: distinct squared distances can round
// to the same square root, and the exact scan ranks by the rounded value.
type topkHeap struct {
	s    *Store
	dist []float64
	rows []int
	k    int
	// bound2 caches pruneBound2 once the heap is full.
	bound2 float64
}

func (h *topkHeap) less(i, j int) bool { // true when i sorts after j (max-heap)
	if h.dist[i] != h.dist[j] {
		return h.dist[i] > h.dist[j]
	}
	return h.s.ids[h.rows[i]] > h.s.ids[h.rows[j]]
}

func (h *topkHeap) swap(i, j int) {
	h.dist[i], h.dist[j] = h.dist[j], h.dist[i]
	h.rows[i], h.rows[j] = h.rows[j], h.rows[i]
}

func (h *topkHeap) down(i int) {
	n := len(h.rows)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.swap(i, m)
		i = m
	}
}

func (h *topkHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

// offer considers (dist, row) for membership in the retained top-k.
func (h *topkHeap) offer(dist float64, row int) {
	switch {
	case len(h.rows) < h.k:
		h.dist = append(h.dist, dist)
		h.rows = append(h.rows, row)
		h.up(len(h.rows) - 1)
	case dist < h.dist[0] || dist == h.dist[0] && h.s.ids[row] < h.s.ids[h.rows[0]]:
		// The candidate's (dist, id) pair sorts before the max: replace it.
		h.dist[0], h.rows[0] = dist, row
		h.down(0)
	default:
		return
	}
	if len(h.rows) == h.k {
		h.bound2 = sqCeil(h.dist[0])
	}
}

// pruneBound2 is the squared distance above which a lower bound proves a
// row cannot enter the heap. +Inf until the heap is full.
func (h *topkHeap) pruneBound2() float64 {
	if len(h.rows) < h.k {
		return math.Inf(1)
	}
	return h.bound2
}

// sqCeil returns the largest float64 whose square root is at most d. A row
// whose squared distance exceeds it is provably farther than d; one at or
// below it may round to exactly d and still win a place by a lower id.
func sqCeil(d float64) float64 {
	if math.IsInf(d, 1) || math.IsNaN(d) {
		return d // no finite bound: nothing can be pruned against it
	}
	x := d * d
	for x > 0 && math.Sqrt(x) > d {
		x = math.Nextafter(x, 0)
	}
	for {
		next := math.Nextafter(x, math.Inf(1))
		if math.Sqrt(next) > d {
			return x
		}
		x = next
	}
}

// treeTopK answers a top-k query from a tree that covers every row. The
// k-th neighbour's distance d is exact: the tree evaluates a point entry
// with the same arithmetic as DistSq. A ball query at d then returns every
// row at distance <= d, ties with the k-th included. The ball is returned
// ranked by (distance, id) with distances from the exact kernel; its first
// k rows are the top-k. ctx is checked before each tree pass. It returns
// nil when the tree refuses the query (negative or non-finite weights or
// coordinates), leaving the answer to the scan.
func (s *Store) treeTopK(ctx context.Context, q, w []float64, k int) ([]Candidate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nn := s.tree.NearestNeighborsWeighted(k, q, w)
	if len(nn) < k {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ball := s.tree.WithinRadiusWeighted(q, nn[k-1].Dist, w)
	out := make([]Candidate, len(ball))
	for i, n := range ball {
		row := s.rowOf(n.ID)
		out[i] = Candidate{Rec: s.recs[row], Dist: math.Sqrt(s.DistSq(row, q, w))}
	}
	sortCandidates(out)
	return out, nil
}

// mergeTopK merges per-shard heaps into the global (dist, id)-ordered
// top-k.
func (s *Store) mergeTopK(heaps []*topkHeap, k int) []Candidate {
	var out []Candidate
	for _, h := range heaps {
		if h == nil {
			continue
		}
		for i, row := range h.rows {
			out = append(out, Candidate{Rec: s.recs[row], Dist: h.dist[i]})
		}
	}
	sortCandidates(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// sortCandidates orders by (distance, id), the exact scan's order.
func sortCandidates(out []Candidate) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Rec.ID < out[j].Rec.ID
	})
}

// SearchTopK returns the exact k nearest rows to q under the weighted
// metric, ordered by (distance, id) — the same set, order, and bitwise
// distances an exhaustive scan over the snapshot would produce. When the
// R-tree covers every row it answers alone (treeTopK). Otherwise the
// coarse quantized pass skips the exact kernel for every row whose lower
// bound exceeds the running k-th distance; the R-tree seeds that bound so
// pruning bites from the first block. workers shards the scan.
func (s *Store) SearchTopK(ctx context.Context, q, w []float64, k, workers int) ([]Candidate, Stats, error) {
	var st Stats
	if err := s.checkQuery(q, w); err != nil {
		return nil, st, err
	}
	if k <= 0 || len(s.ids) == 0 {
		return nil, st, nil
	}
	if k > len(s.ids) {
		k = len(s.ids)
	}
	st.Rows = len(s.ids)
	if s.tree != nil && s.treeRows == len(s.ids) {
		out, err := s.treeTopK(ctx, q, w, k)
		if err != nil {
			return nil, st, err
		}
		if out != nil {
			st.ExactEvals, st.TreeSeeded = len(out), true
			return out[:k], st, nil
		}
	}

	// Seed the pruning bound with the exact k-th distance among the
	// tree's rows. The tree may cover only a prefix of the store (after
	// appends); a subset's k-th distance is >= the full set's, so the
	// seed can only be loose, never unsafe. The distance is recomputed
	// from the float columns rather than taken from the tree's result so
	// it rounds exactly like every row's DistSq.
	seed2 := math.Inf(1)
	if s.tree != nil && s.tree.Len() >= k {
		if nn := s.tree.NearestNeighborsWeighted(k, q, w); len(nn) == k {
			if row := s.rowOf(nn[k-1].ID); row >= 0 {
				seed2 = sqCeil(math.Sqrt(s.DistSq(row, q, w)))
				st.TreeSeeded = true
			}
		}
	}

	lut := s.buildLUT(q, w)
	shards := scanShards(workers, len(s.ids))
	heaps := make([]*topkHeap, len(shards))
	evals := make([]int, len(shards))
	errs := make([]error, len(shards))
	runShard := func(si int) {
		sh := shards[si]
		h := &topkHeap{s: s, k: k}
		heaps[si] = h
		var acc [blockRows]float64
		for lo := sh.Lo; lo < sh.Hi; lo += blockRows {
			if err := ctx.Err(); err != nil {
				errs[si] = err
				return
			}
			hi := lo + blockRows
			if hi > sh.Hi {
				hi = sh.Hi
			}
			blk := acc[:hi-lo]
			for d := 0; d < s.dim; d++ {
				lrow := lut[d*qCells : (d+1)*qCells]
				qc := s.qcols[d][lo:hi]
				if d == 0 {
					for i, c := range qc {
						blk[i] = lrow[c]
					}
					continue
				}
				for i, c := range qc {
					blk[i] += lrow[c]
				}
			}
			bound2 := seed2
			if hb := h.pruneBound2(); hb < bound2 {
				bound2 = hb
			}
			for i, lb2 := range blk {
				if lb2 > bound2 {
					continue
				}
				evals[si]++
				h.offer(math.Sqrt(s.DistSq(lo+i, q, w)), lo+i)
				if hb := h.pruneBound2(); hb < bound2 {
					bound2 = hb
				}
			}
		}
	}
	if len(shards) == 1 {
		runShard(0)
	} else {
		var wg sync.WaitGroup
		for si := range shards {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				runShard(si)
			}(si)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, st, err
		}
	}

	for si := range heaps {
		st.ExactEvals += evals[si]
	}
	return s.mergeTopK(heaps, k), st, nil
}

// SearchRadius returns every row within radius of q under the weighted
// metric (distance <= radius), ordered by (distance, id). The coarse pass
// prunes with a hair of slack so borderline rows are always re-checked by
// the exact kernel; callers applying a different boundary predicate (e.g.
// a similarity threshold) should pass a radius with their own margin and
// re-filter. A negative radius returns nothing; +Inf returns every row.
func (s *Store) SearchRadius(ctx context.Context, q, w []float64, radius float64, workers int) ([]Candidate, Stats, error) {
	var st Stats
	if err := s.checkQuery(q, w); err != nil {
		return nil, st, err
	}
	if len(s.ids) == 0 || radius < 0 || math.IsNaN(radius) {
		return nil, st, nil
	}
	st.Rows = len(s.ids)
	bound2 := radius * radius
	lut := s.buildLUT(q, w)
	shards := scanShards(workers, len(s.ids))
	parts := make([][]Candidate, len(shards))
	evals := make([]int, len(shards))
	errs := make([]error, len(shards))
	runShard := func(si int) {
		sh := shards[si]
		var acc [blockRows]float64
		for lo := sh.Lo; lo < sh.Hi; lo += blockRows {
			if err := ctx.Err(); err != nil {
				errs[si] = err
				return
			}
			hi := lo + blockRows
			if hi > sh.Hi {
				hi = sh.Hi
			}
			blk := acc[:hi-lo]
			for d := 0; d < s.dim; d++ {
				lrow := lut[d*qCells : (d+1)*qCells]
				qc := s.qcols[d][lo:hi]
				if d == 0 {
					for i, c := range qc {
						blk[i] = lrow[c]
					}
					continue
				}
				for i, c := range qc {
					blk[i] += lrow[c]
				}
			}
			for i, lb2 := range blk {
				if lb2 > bound2 {
					continue
				}
				evals[si]++
				d2 := s.DistSq(lo+i, q, w)
				if d := math.Sqrt(d2); d <= radius {
					parts[si] = append(parts[si], Candidate{Rec: s.recs[lo+i], Dist: d})
				}
			}
		}
	}
	if len(shards) == 1 {
		runShard(0)
	} else {
		var wg sync.WaitGroup
		for si := range shards {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				runShard(si)
			}(si)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, st, err
		}
	}
	var out []Candidate
	for si := range parts {
		st.ExactEvals += evals[si]
		out = append(out, parts[si]...)
	}
	sortCandidates(out)
	return out, st, nil
}

// scanShards splits n rows across workers, collapsing to a single inline
// shard when parallelism cannot pay for itself.
func scanShards(workers, n int) []workpool.Shard {
	if n <= blockRows {
		return []workpool.Shard{{Lo: 0, Hi: n}}
	}
	return workpool.Shards(workers, n)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Manager publishes per-kind stores kept in sync with a DB. Queries call
// Store, which refreshes lazily when the DB's version moved; Watch keeps
// the refresh off the query path by rebuilding as commits land.
type Manager struct {
	db    *shapedb.DB
	mu    sync.Mutex
	slots map[features.Kind]*slot
}

type slot struct {
	mu  sync.Mutex // serializes rebuilds of one kind
	cur atomic.Pointer[Store]
}

// NewManager returns a Manager over db with no stores built yet.
func NewManager(db *shapedb.DB) *Manager {
	return &Manager{db: db, slots: make(map[features.Kind]*slot)}
}

// ErrNoDB is returned by Store when the manager has no backing database.
var ErrNoDB = errors.New("colstore: manager has no database")

func (m *Manager) slot(kind features.Kind) *slot {
	m.mu.Lock()
	defer m.mu.Unlock()
	sl, ok := m.slots[kind]
	if !ok {
		sl = &slot{}
		m.slots[kind] = sl
	}
	return sl
}

// Store returns a store for kind whose snapshot is no older than the DB
// version observed on entry, building or refreshing it if needed. The
// returned store is immutable and safe for concurrent searches.
func (m *Manager) Store(kind features.Kind) (*Store, error) {
	if m == nil || m.db == nil {
		return nil, ErrNoDB
	}
	if !kind.Valid() {
		return nil, fmt.Errorf("colstore: invalid feature kind %d", int(kind))
	}
	sl := m.slot(kind)
	if s := sl.cur.Load(); s != nil && s.version == m.db.Version() {
		return s, nil
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	recs, ver := m.db.SnapshotVersion()
	if s := sl.cur.Load(); s != nil && s.version == ver {
		return s, nil
	}
	s, err := build(kind, m.db.Options().Dim(kind), recs, ver, sl.cur.Load())
	if err != nil {
		return nil, err
	}
	sl.cur.Store(s)
	return s, nil
}

// Cached returns the current store for kind without refreshing, or nil.
func (m *Manager) Cached(kind features.Kind) *Store {
	if m == nil || m.db == nil {
		return nil
	}
	return m.slot(kind).cur.Load()
}

// Watch rebuilds stale stores as DB commits land, until ctx is done. Only
// kinds that have been requested at least once (via Store or a prior Watch
// refresh of them) are maintained. Safe to run concurrently with queries;
// query-time staleness checks in Store remain the correctness path, Watch
// just moves the rebuild cost off it.
func (m *Manager) Watch(ctx context.Context) {
	if m == nil || m.db == nil {
		return
	}
	for {
		// Grab the notification channel before reading versions so a
		// commit between the check and the wait still wakes us.
		ch := m.db.CommitNotify()
		m.refreshStale()
		select {
		case <-ctx.Done():
			return
		case <-ch:
		}
	}
}

func (m *Manager) refreshStale() {
	m.mu.Lock()
	kinds := make([]features.Kind, 0, len(m.slots))
	for k := range m.slots {
		kinds = append(kinds, k)
	}
	m.mu.Unlock()
	for _, k := range kinds {
		// Store re-checks staleness under the slot lock.
		_, _ = m.Store(k)
	}
}
