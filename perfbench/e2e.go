package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// readOps are the operations that answer a query (everything but writes).
var readOps = []string{opWeighted, opUnweighted, opThreshold, opByID, opUpload, opUploadSelf}

// The tail percentile of the end-to-end query latency in BENCHMARK.json,
// and how the window is sliced for the sliced statistics: at most
// maxSlices slices, each holding about sliceSamples or more of the
// requests the statistic counts.
const (
	queryTail    = 90
	maxSlices    = 5
	sliceSamples = 200
)

func sliceCount(n int) int { return max(1, min(maxSlices, n/sliceSamples)) }

// runEndToEnd prepares the workload's inputs, sets the servers up
// setupRounds times (reporting the median), runs the timed closed loop on
// the last set-up, and verifies the answers and the resulting state.
func runEndToEnd(cfg config, w *workload) (result, map[string]any, error) {
	dir, err := newRunDir(cfg)
	if err != nil {
		return result{}, nil, err
	}
	b := &bench{cfg: cfg, dir: dir}
	t0 := time.Now()
	if err := w.prepare(b); err != nil {
		return result{}, nil, fmt.Errorf("preparing inputs: %w", err)
	}
	prepS := time.Since(t0).Seconds()

	var setups []float64
	var f *fleet
	for r := range setupRounds {
		t0 := time.Now()
		f, err = w.launch(b, r)
		if err != nil {
			return result{}, nil, fmt.Errorf("set-up round %d: %w", r, err)
		}
		if err := w.warm(b, f); err != nil {
			f.stop()
			return result{}, nil, fmt.Errorf("set-up round %d: %w", r, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r < setupRounds-1 {
			f.stop()
		}
	}
	clean := false
	defer func() {
		f.stop()
		if clean {
			removeAll(dir)
		}
	}()

	before, err := readBracket(f)
	if err != nil {
		return result{}, nil, err
	}
	keep := func(int, int) bool { return false }
	if b.orc != nil {
		keep = keepSample(cfg.seed)
		// The oracle's store is as large as the servers'. Release it for
		// the window so the load generator's GC does not compete with the
		// servers for the CPUs; verify rebuilds it.
		b.orc = nil
	}
	runtime.GC()
	debug.FreeOSMemory()
	window := time.Duration(cfg.seconds) * time.Second
	stopRSS := make(chan struct{})
	rssMean := f.sampleRSS(stopRSS)
	l := closedLoop(f.front.url, w.streams(b), window, keep)
	span := l.lastDone.Sub(l.start)
	close(stopRSS)
	rss := <-rssMean
	after, err := readBracket(f)
	if err != nil {
		return result{}, nil, err
	}
	peakRSS, err := f.memMB("VmHWM")
	if err != nil {
		return result{}, nil, err
	}
	compared, verr := w.verify(b, f, l)
	attempted, failed := l.totals()
	if attempted == 0 {
		return result{}, nil, fmt.Errorf("no request completed in the window")
	}

	var reads sample
	for _, op := range readOps {
		reads = append(reads, l.lat[op]...)
	}
	p50, err := reads.percentile(50)
	if err != nil {
		return result{}, nil, err
	}
	// Tail and throughput are medians over time slices of the window (see
	// slicedMedian); with too few requests for several slices they are
	// taken over the whole window.
	tailSlices := sliceCount(len(reads))
	tailOf := func(evs []event, _ time.Duration) (float64, bool) {
		var s sample
		for _, e := range evs {
			if e.read {
				s = append(s, e.lat)
			}
		}
		v, err := s.percentile(queryTail)
		return ms(v), err == nil
	}
	tail, ok := slicedMedian(l.done, span, tailSlices, tailOf)
	if !ok {
		tailSlices = 1
		if tail, ok = slicedMedian(l.done, span, 1, tailOf); !ok {
			return result{}, nil, fmt.Errorf("query tail: %d queries are too few for p%d", len(reads), queryTail)
		}
	}
	work := float64(attempted - failed)
	if w == ingestUpload {
		work = float64(l.shapes)
	}
	rateSlices := sliceCount(len(l.done))
	throughput, _ := slicedMedian(l.done, span, rateSlices, func(evs []event, d time.Duration) (float64, bool) {
		n := 0
		for _, e := range evs {
			if w == ingestUpload {
				n += e.shapes
			} else {
				n++
			}
		}
		return float64(n) / d.Seconds(), true
	})
	setupS := medianF(setups)
	res := result{
		Correct:   failed == 0 && verr == nil,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":          {setupS, "s"},
			"server_rss_mb":    {rss, "MB"},
			"query_p50_ms":     {ms(p50), "ms"},
			"query_p90_ms":     {tail, "ms"},
			"throughput_per_s": {throughput, "1/s"},
		},
	}

	named := map[string]any{
		"setup_s":            map[string]any{"value": setupS, "unit": "s", "rounds": setups},
		"error_share":        map[string]any{"value": float64(failed) / float64(attempted), "unit": "share", "samples": attempted},
		"server_rss_mb":      map[string]any{"value": rss, "unit": "MB", "processes": len(f.procs), "statistic": "mean VmRSS over the window, summed over processes"},
		"server_peak_rss_mb": map[string]any{"value": peakRSS, "unit": "MB", "processes": len(f.procs), "statistic": "VmHWM, summed over processes"},
	}
	lat := func(name string, ops []string, ps ...float64) {
		var s sample
		for _, op := range ops {
			s = append(s, l.lat[op]...)
		}
		for _, p := range ps {
			key := fmt.Sprintf("%s_p%g_ms", name, p)
			v, err := s.percentile(p)
			if err != nil {
				named[key] = map[string]any{"value": nil, "unit": "ms", "samples": len(s), "refused": err.Error()}
				continue
			}
			named[key] = map[string]any{"value": ms(v), "unit": "ms", "samples": len(s)}
		}
	}
	switch w {
	case ingestUpload:
		named["ingest_shapes_per_s"] = map[string]any{"value": float64(l.shapes) / span.Seconds(), "unit": "1/s", "samples": l.shapes}
		lat("upload_query", []string{opUpload, opUploadSelf}, 50, 95)
	case searchScan, clusterMixed:
		lat("search_weighted", []string{opWeighted}, 50, 99)
		lat("search_threshold", []string{opThreshold}, 50, 99)
		lat("search_by_id", []string{opByID}, 50, 99)
		if w == searchScan {
			lat("search_unweighted", []string{opUnweighted}, 50, 99)
		} else {
			lat("insert", []string{opInsert}, 50, 95)
		}
	}
	lat("query", readOps, 50)
	named[fmt.Sprintf("query_p%d_ms", queryTail)] = map[string]any{"value": tail, "unit": "ms", "samples": len(reads),
		"statistic": fmt.Sprintf("median over %d time slices of each slice's p%d", tailSlices, queryTail)}
	named["throughput_per_s"] = map[string]any{"value": throughput, "unit": "1/s", "of": w.unit,
		"statistic": fmt.Sprintf("median over %d time slices of each slice's rate; whole window %.4g", rateSlices, work/span.Seconds())}

	verdict := "pass"
	if verr != nil {
		verdict = "FAIL: " + verr.Error()
	} else if failed > 0 {
		verdict = fmt.Sprintf("FAIL: %d of %d requests failed", failed, attempted)
	}
	report := map[string]any{
		"workload":      w.name,
		"why":           w.why,
		"correctness":   map[string]any{"verdict": verdict, "oracle_compared": compared, "failures": l.failures, "acknowledged_writes": len(l.acks)},
		"metrics":       named,
		"per_op":        perOp(l),
		"window_s":      span.Seconds(),
		"prepare_s":     prepS,
		"records":       b.n,
		"throughput_of": w.unit,
		"cache_hits":    l.cacheHits,
		"server_flags":  f.flags(),
		"server_state": map[string]any{
			"before": before, "after": after,
			"background_work_in_window": backgroundWork(before, after),
		},
	}
	clean = res.Correct // keep a failed run's data and logs for inspection
	return res, report, nil
}

// perOp lists attempted, failed and answered counts per operation.
func perOp(l *ledger) map[string]map[string]int {
	out := make(map[string]map[string]int)
	for op, n := range l.attempted {
		out[op] = map[string]int{"attempted": n, "failed": l.failed[op], "answered": len(l.lat[op])}
	}
	return out
}
