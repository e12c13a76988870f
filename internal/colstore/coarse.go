package colstore

import (
	"context"
	"math"
	"sync"
)

// Coarse search: the quantized filter stage of the two-stage scan served
// as the answer, with the exact re-rank skipped entirely. Each row is
// scored by its LUT lower bound, so a coarse distance never exceeds the
// true weighted distance and the ranking is approximate. This is the
// brownout tier: under overload a coarse answer costs one byte load and
// one table add per dimension per row — no float column traffic, no exact
// kernel — and callers must mark responses produced this way as degraded.

// SearchCoarseTopK returns the k rows with the smallest quantized
// lower-bound distances to q, ordered by (coarse distance, id). The
// result set and distances are approximate: each Dist is the sqrt of the
// row's lower bound, <= the true weighted distance.
func (s *Store) SearchCoarseTopK(ctx context.Context, q, w []float64, k, workers int) ([]Candidate, Stats, error) {
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

	lut := s.buildLUT(q, w)
	shards := scanShards(workers, len(s.ids))
	heaps := make([]*topkHeap, len(shards))
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
			accumulateLUT(blk, lut, s.qcols, lo, hi)
			bound2 := h.pruneBound2()
			for i, lb2 := range blk {
				if lb2 > bound2 {
					continue
				}
				h.offer(math.Sqrt(lb2), lo+i)
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

	return s.mergeTopK(heaps, k), st, nil
}

// SearchCoarseRadius returns every row whose quantized lower bound is
// within radius of q, ordered by (coarse distance, id). Because the bound
// is a lower bound, the set is a superset of the true radius result —
// rows are missed never, over-included sometimes, and distances read low.
func (s *Store) SearchCoarseRadius(ctx context.Context, q, w []float64, radius float64, workers int) ([]Candidate, Stats, error) {
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
			accumulateLUT(blk, lut, s.qcols, lo, hi)
			for i, lb2 := range blk {
				if lb2 > bound2 {
					continue
				}
				parts[si] = append(parts[si], Candidate{Rec: s.recs[lo+i], Dist: math.Sqrt(lb2)})
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
		out = append(out, parts[si]...)
	}
	sortCandidates(out)
	return out, st, nil
}

// accumulateLUT sums the per-dimension LUT lower bounds for rows [lo, hi)
// into blk — the shared inner loop of the coarse filter and coarse-only
// search.
func accumulateLUT(blk, lut []float64, qcols [][]uint8, lo, hi int) {
	for d := 0; d < len(qcols); d++ {
		lrow := lut[d*qCells : (d+1)*qCells]
		qc := qcols[d][lo:hi]
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
}
