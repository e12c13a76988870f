// Package core is the 3DESS search engine — the paper's primary
// contribution. It ties the feature-extraction pipeline, the shape
// database, and the columnar descriptor store into the query flows of §2.4:
// query-by-example with a chosen feature vector, threshold (similarity)
// search under the weighted Euclidean measure of Equations 4.3–4.4, top-k
// search, the multi-step refinement strategy of §4.2, relevance feedback
// (query reconstruction and weight reconfiguration, §2.2), and
// cluster-based browsing.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"threedess/internal/colstore"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/shapedb"
	"threedess/internal/workpool"
)

// Engine executes shape queries against a database.
type Engine struct {
	db        *shapedb.DB
	extractor *features.Extractor
	// workers bounds the pool used by bulk ingest and sharded scans
	// (≤ 0 = one per logical CPU). It never changes results, only
	// throughput.
	workers int
	// cstore holds per-kind columnar descriptor copies for the two-stage
	// search path; mode is the engine-wide default ScanMode. Neither
	// changes results — two-stage search is exact — only how a query
	// executes.
	cstore *colstore.Manager
	mode   ScanMode
}

// NewEngine builds an engine over db, extracting query features with the
// database's feature options. The worker-pool size is taken from the
// database's feature options (Options.Workers).
func NewEngine(db *shapedb.DB) *Engine {
	return &Engine{
		db:        db,
		extractor: features.NewExtractor(db.Options()),
		workers:   db.Options().Workers,
		cstore:    colstore.NewManager(db),
	}
}

// SetWorkers overrides the engine's worker-pool size (≤ 0 = one worker
// per logical CPU) and returns the engine. Results are identical at every
// setting; only throughput changes.
func (e *Engine) SetWorkers(n int) *Engine {
	e.workers = n
	return e
}

// DB returns the underlying database.
func (e *Engine) DB() *shapedb.DB { return e.db }

// Extractor returns the query feature extractor.
func (e *Engine) Extractor() *features.Extractor { return e.extractor }

// Result is one retrieved shape.
type Result struct {
	ID         int64
	Name       string
	Group      int
	Distance   float64 // weighted Euclidean distance (Equation 4.3)
	Similarity float64 // 1 − d/dmax (Equation 4.4), clamped to [0, 1]
}

// Options configure a single-feature search.
type Options struct {
	// Feature selects which descriptor drives the search.
	Feature features.Kind
	// Weights are per-dimension weights of Equation 4.3. Nil means
	// uniform: an unweighted search runs as an all-ones weighted one, so
	// every search takes the same path and ranks ties the same way.
	Weights []float64
	// Threshold is the minimum similarity for SearchThreshold (0..1).
	Threshold float64
	// K is the result count for SearchTopK.
	K int
	// Mode selects how a search executes: ScanAuto (default)
	// defers to the engine's configured mode, ScanExact forces the
	// exhaustive scan, ScanTwoStage forces the columnar filter-and-refine
	// path. Every mode returns identical results.
	Mode ScanMode
	// DMax overrides the Equation-4.4 normalizer (0 = derive it from this
	// database's feature-space bounding box, the default). A scatter-gather
	// coordinator passes the cluster-global diagonal here so every shard's
	// similarity values — and threshold cutoffs — agree with a single node
	// holding the whole corpus.
	DMax float64
}

// WeightedDistance evaluates Equation 4.3.
func WeightedDistance(q, x features.Vector, w []float64) float64 {
	sum := 0.0
	for i := range q {
		d := q[i] - x[i]
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		sum += wi * d * d
	}
	return math.Sqrt(sum)
}

// Similarity evaluates Equation 4.4 for a distance under the given dmax,
// clamping to [0, 1].
func Similarity(dist, dmax float64) float64 {
	if dmax <= 0 {
		return 0
	}
	s := 1 - dist/dmax
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

func (e *Engine) checkOptions(opt *Options, query features.Set) (features.Vector, error) {
	if !opt.Feature.Valid() {
		return nil, fmt.Errorf("core: invalid feature kind %v", opt.Feature)
	}
	qv, ok := query[opt.Feature]
	if !ok {
		return nil, fmt.Errorf("core: query has no %v vector", opt.Feature)
	}
	for i, x := range qv {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("core: query %v vector has non-finite coordinate %g at dimension %d", opt.Feature, x, i)
		}
	}
	if opt.Weights == nil {
		// Unweighted means uniform weights. Distances are unchanged to the
		// bit (1·d·d == d·d), and the search runs the weighted pipeline.
		opt.Weights = make([]float64, len(qv))
		for i := range opt.Weights {
			opt.Weights[i] = 1
		}
	}
	if len(opt.Weights) != len(qv) {
		return nil, fmt.Errorf("core: %d weights for %d-dimensional feature %v",
			len(opt.Weights), len(qv), opt.Feature)
	}
	for i, w := range opt.Weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("core: invalid weight %g at dimension %d", w, i)
		}
	}
	if opt.DMax < 0 || math.IsNaN(opt.DMax) || math.IsInf(opt.DMax, 0) {
		return nil, fmt.Errorf("core: invalid dmax override %g", opt.DMax)
	}
	return qv, nil
}

// dmax resolves the Equation-4.4 normalizer for a search: the explicit
// override when one was supplied, the database's own bounding-box diagonal
// otherwise.
func (e *Engine) dmax(opt Options) float64 {
	if opt.DMax > 0 {
		return opt.DMax
	}
	return e.db.DMax(opt.Feature)
}

// ExtractQuery runs feature extraction on a query mesh for the given
// kinds (nil = the four core descriptors).
func (e *Engine) ExtractQuery(mesh *geom.Mesh, kinds []features.Kind) (features.Set, error) {
	if kinds == nil {
		kinds = features.CoreKinds
	}
	return e.extractor.Extract(mesh, kinds)
}

// QueryFeatures returns the stored feature set of a database shape, for
// query-by-browsing ("pick a model and submit it as an initial query").
func (e *Engine) QueryFeatures(id int64) (features.Set, error) {
	rec, ok := e.db.Get(id)
	if !ok {
		return nil, fmt.Errorf("core: no shape with id %d", id)
	}
	return rec.Features, nil
}

// SearchThreshold returns every shape whose similarity to the query meets
// opt.Threshold, most similar first (the paper's §4.1 query mode). ctx
// cancellation (request timeout, client gone, server drain) aborts the
// sharded scan between records and returns the context error.
func (e *Engine) SearchThreshold(ctx context.Context, query features.Set, opt Options) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	qv, err := e.checkOptions(&opt, query)
	if err != nil {
		return nil, err
	}
	if opt.Threshold < 0 || opt.Threshold > 1 {
		return nil, fmt.Errorf("core: threshold %g outside [0, 1]", opt.Threshold)
	}
	dmax := e.dmax(opt)
	switch mode, forced := e.resolveScanMode(opt); mode {
	case ScanCoarse:
		// Coarse is approximate by design; a forced request surfaces
		// errors so the caller can fall back to exact and drop its
		// degraded marking, never mislabel.
		out, err := e.coarseThreshold(ctx, qv, opt, dmax)
		if err == nil || forced || ctx.Err() != nil {
			return out, err
		}
	case ScanTwoStage:
		out, err := e.twoStageThreshold(ctx, qv, opt, dmax)
		if err == nil || forced || ctx.Err() != nil {
			return out, err
		}
		// Auto-selected two-stage could not serve (store build failure);
		// degrade to the exact scan rather than failing the query.
	}
	return e.scan(ctx, qv, opt, func(r Result) bool { return r.Similarity >= opt.Threshold }, 0, dmax)
}

// SearchTopK returns the opt.K most similar shapes, most similar first.
// ctx cancellation aborts the scan between records.
func (e *Engine) SearchTopK(ctx context.Context, query features.Set, opt Options) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	qv, err := e.checkOptions(&opt, query)
	if err != nil {
		return nil, err
	}
	if opt.K <= 0 {
		return nil, fmt.Errorf("core: K must be positive, got %d", opt.K)
	}
	dmax := e.dmax(opt)
	switch mode, forced := e.resolveScanMode(opt); mode {
	case ScanCoarse:
		out, err := e.coarseTopK(ctx, qv, opt, dmax)
		if err == nil || forced || ctx.Err() != nil {
			return out, err
		}
	case ScanTwoStage:
		out, err := e.twoStageTopK(ctx, qv, opt, dmax)
		if err == nil || forced || ctx.Err() != nil {
			return out, err
		}
	}
	return e.scan(ctx, qv, opt, nil, opt.K, dmax)
}

// minParallelScan is the snapshot size below which the sharded scan is
// not worth its goroutine fan-out and the scan stays on one worker.
// Goroutine spawn, WaitGroup synchronization, and the partial merge cost
// on the order of a thousand ranked records, so small corpora scan inline.
const minParallelScan = 1024

// scan is the exact search: a full scan ranked by Equation 4.3. keep filters results (nil keeps everything); k > 0 truncates.
//
// The scan iterates a lock-free snapshot (shapedb.Snapshot) partitioned
// into contiguous shards across the engine's worker pool; each worker
// ranks its shard into a local partial result (truncated to its own top-k
// when k > 0), and the partials are merged and re-ranked at the end. The
// final (distance, ID) ordering makes the output independent of the shard
// layout, so serial and parallel scans return identical results. A scan
// that resolves to one shard runs on the calling goroutine: spawning a
// worker and merging a single partial only adds latency.
func (e *Engine) scan(ctx context.Context, qv features.Vector, opt Options, keep func(Result) bool, k int, dmax float64) ([]Result, error) {
	recs := e.db.Snapshot()
	workers := workpool.Resolve(e.workers)
	if len(recs) < minParallelScan {
		workers = 1
	}
	shards := workpool.Shards(workers, len(recs))
	partials := make([][]Result, len(shards))
	errs := make([]error, len(shards))
	if len(shards) == 1 {
		partials[0], errs[0] = e.scanShard(ctx, recs, qv, opt, keep, k, dmax)
	} else {
		var wg sync.WaitGroup
		for si, s := range shards {
			wg.Add(1)
			go func(si int, s workpool.Shard) {
				defer wg.Done()
				partials[si], errs[si] = e.scanShard(ctx, recs[s.Lo:s.Hi], qv, opt, keep, k, dmax)
			}(si, s)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var out []Result
	for _, p := range partials {
		out = append(out, p...)
	}
	sortResults(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// scanShard ranks one contiguous slice of a snapshot. With k > 0 the
// shard's result is pre-truncated to its local top-k, bounding the merge
// cost at workers·k rows.
func (e *Engine) scanShard(ctx context.Context, recs []*shapedb.Record, qv features.Vector, opt Options, keep func(Result) bool, k int, dmax float64) ([]Result, error) {
	var out []Result
	for i, rec := range recs {
		// Cancellation check amortized over a small block of records so
		// an aborted request stops scanning promptly without paying a
		// per-record synchronization cost.
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		xv, ok := rec.Features[opt.Feature]
		if !ok {
			continue
		}
		if len(xv) != len(qv) {
			return nil, fmt.Errorf("core: stored feature %v of shape %d has dimension %d, query %d",
				opt.Feature, rec.ID, len(xv), len(qv))
		}
		d := WeightedDistance(qv, xv, opt.Weights)
		r := batchResult(rec, d, dmax)
		if keep == nil || keep(r) {
			out = append(out, r)
		}
	}
	if k > 0 && len(out) > k {
		sortResults(out)
		out = out[:k]
	}
	return out, nil
}

// sortResults orders by ascending distance, breaking ties by ID — the
// canonical result order every search path produces.
func sortResults(out []Result) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].ID < out[j].ID
	})
}

// ExcludeID filters a result list in place, dropping the given id (used to
// drop the query shape itself when querying by a database member, since
// "it is guaranteed to be retrieved").
func ExcludeID(results []Result, id int64) []Result {
	out := results[:0]
	for _, r := range results {
		if r.ID != id {
			out = append(out, r)
		}
	}
	return out
}
