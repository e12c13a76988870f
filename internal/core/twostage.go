package core

import (
	"context"
	"fmt"
	"math"

	"threedess/internal/colstore"
	"threedess/internal/features"
)

// ScanMode selects how searches execute.
type ScanMode int

const (
	// ScanAuto picks two-stage search when the corpus is large enough to
	// repay the coarse pass and the columnar store is healthy, exact scan
	// otherwise. In Options it additionally means "defer to the engine
	// default".
	ScanAuto ScanMode = iota
	// ScanExact forces the exhaustive scan — the escape hatch if
	// the two-stage path is ever in doubt.
	ScanExact
	// ScanTwoStage forces the two-stage path over the columnar store: an
	// R-tree filter (or a quantized scan seeded by it), then exact
	// re-ranking of survivors.
	ScanTwoStage
	// ScanCoarse serves the two-stage filter stage AS the answer — rows
	// ranked by their quantized lower bounds with the exact re-rank
	// skipped. Results are approximate (distances read low, ranking may
	// differ near ties); it exists for brownout serving, where the caller
	// must mark the response degraded. Never chosen by ScanAuto.
	ScanCoarse
)

func (m ScanMode) String() string {
	switch m {
	case ScanAuto:
		return "auto"
	case ScanExact:
		return "exact"
	case ScanTwoStage:
		return "two-stage"
	case ScanCoarse:
		return "coarse"
	default:
		return fmt.Sprintf("ScanMode(%d)", int(m))
	}
}

// ParseScanMode maps the user-facing flag values onto a ScanMode.
func ParseScanMode(s string) (ScanMode, error) {
	switch s {
	case "", "auto":
		return ScanAuto, nil
	case "exact":
		return ScanExact, nil
	case "two-stage", "twostage", "two_stage":
		return ScanTwoStage, nil
	case "coarse":
		return ScanCoarse, nil
	default:
		return ScanAuto, fmt.Errorf("core: unknown scan mode %q (want auto, exact, two-stage, or coarse)", s)
	}
}

// autoTwoStageMin is the corpus size from which ScanAuto prefers the
// two-stage path. Below it the exact scan finishes before the coarse pass
// could pay for its lookup-table setup.
const autoTwoStageMin = 4096

// SetSearchMode sets the engine-wide default scan mode for searches
// (requests may still override it per query via Options.Mode)
// and returns the engine.
func (e *Engine) SetSearchMode(m ScanMode) *Engine {
	e.mode = m
	return e
}

// SearchMode returns the engine-wide default scan mode, for operator
// surfaces (/api/stats) that report which execution path serves queries.
func (e *Engine) SearchMode() ScanMode { return e.mode }

// ColStore exposes the engine's columnar store manager so servers can run
// its Watch loop and tests can inspect staleness behavior.
func (e *Engine) ColStore() *colstore.Manager { return e.cstore }

// resolveScanMode folds the per-query mode, the engine default, and the
// auto heuristic into a final decision. forced reports that two-stage was
// explicitly requested, so its errors must surface instead of silently
// degrading to the exact scan.
func (e *Engine) resolveScanMode(opt Options) (mode ScanMode, forced bool) {
	m := opt.Mode
	if m == ScanAuto {
		m = e.mode
	} else {
		forced = true
	}
	if m == ScanAuto {
		if e.db.Len() >= autoTwoStageMin {
			return ScanTwoStage, false
		}
		return ScanExact, false
	}
	return m, forced
}

// twoStageTopK serves a top-k query from the columnar store: the R-tree
// yields every row within the k-th neighbour's distance (or, after
// appends, seeds a pruning bound for the quantized columns), and only
// those candidates reach the exact Equation-4.3 kernel. The result is
// bit-identical to the exhaustive scan — same rows, same order, same
// distances.
func (e *Engine) twoStageTopK(ctx context.Context, qv features.Vector, opt Options, dmax float64) ([]Result, error) {
	st, err := e.cstore.Store(opt.Feature)
	if err != nil {
		return nil, err
	}
	cands, _, err := st.SearchTopK(ctx, qv, opt.Weights, opt.K, e.workers)
	if err != nil {
		return nil, err
	}
	// var (not make) so an empty result is nil, exactly like the scan path.
	var out []Result
	for _, c := range cands {
		out = append(out, batchResult(c.Rec, c.Dist, dmax))
	}
	return out, nil
}

// twoStageThreshold serves a weighted similarity-threshold query from the
// columnar store. The prune radius converts the threshold through
// Equation 4.4 with a hair of slack (the exact path compares similarities,
// not distances, and the two predicates can disagree by an ulp at the
// boundary); every survivor is then re-checked with the exact similarity
// predicate, so the output matches the exhaustive scan bit for bit.
func (e *Engine) twoStageThreshold(ctx context.Context, qv features.Vector, opt Options, dmax float64) ([]Result, error) {
	st, err := e.cstore.Store(opt.Feature)
	if err != nil {
		return nil, err
	}
	radius := math.Inf(1)
	if opt.Threshold > 0 {
		// Relative slack covers d ≤ (1−t)·dmax rounding; the additive
		// dmax term covers thresholds so close to 1 that tiny distances
		// still round to similarity 1.
		radius = (1-opt.Threshold)*dmax*(1+1e-9) + dmax*1e-12
	}
	cands, _, err := st.SearchRadius(ctx, qv, opt.Weights, radius, e.workers)
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, c := range cands {
		r := batchResult(c.Rec, c.Dist, dmax)
		if r.Similarity >= opt.Threshold {
			out = append(out, r)
		}
	}
	return out, nil
}
