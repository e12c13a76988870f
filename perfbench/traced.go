package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"threedess/internal/colstore"
	"threedess/internal/core"
	"threedess/internal/faultfs"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/moments"
	"threedess/internal/scatter"
	"threedess/internal/server"
	"threedess/internal/shapedb"
	"threedess/internal/skeleton"
	"threedess/internal/skelgraph"
	"threedess/internal/voxel"
)

// Sizes of the traced run. Each traced operation alternates with an
// untraced one over the same kind of input, which measures the tracing
// overhead.
const (
	traceMeshes       = 24  // meshes through the extraction stages
	traceBatches      = 8   // batch inserts of ingestBatch meshes
	traceInserts      = 400 // durable inserts (descriptor-only workloads)
	traceQueries      = 200 // engine queries per searched descriptor
	traceExactScans   = 16  // exhaustive scans (expensive on large corpora)
	traceRequests     = 400 // handler requests (upload workloads: 40)
	traceClusterQs    = 200 // coordinator requests (upload workloads: 40)
	traceAllocs       = 60  // id allocations
	traceColBuilds    = 3   // colstore builds per searched descriptor
	traceUploadReqCap = 40
)

// traceOps are the traced operations: a root span over a sequence of
// calls into the layers. Each gets an unattributed and an overhead share.
var traceOps = []string{"extract", "journal_insert", "search", "handler", "cluster_search"}

// layerRun accumulates the traced run's measurements.
type layerRun struct {
	tr        *tracer
	dbs       traceDBs // the stores the journal step opened
	m         map[string]metric
	untraced  map[string]sample // op root durations with tracing off
	attempted int
	failed    int
	failures  []string
}

func (lr *layerRun) put(name string, v float64, unit string) { lr.m[name] = metric{v, unit} }

// med puts the median of the named spans' durations (or self times) in
// microseconds.
func (lr *layerRun) medUS(metricName, span string, self bool) {
	s := byName(lr.tr.snapshot(), self)[span]
	v, _ := s.percentile(50)
	lr.put(metricName, us(v), "us")
}

func (lr *layerRun) fail(format string, args ...any) {
	lr.failed++
	if len(lr.failures) < 8 {
		lr.failures = append(lr.failures, fmt.Sprintf(format, args...))
	}
}

// op runs fn twice per item as operation name: once traced and once
// untraced, alternating which goes first. fn gets the tracer (nil on the
// untraced side) and the root span; stateful layers keep one instance
// per side, so both sides see the same inputs in the same state.
func (lr *layerRun) op(name string, n int, fn func(i int, t *tracer, root *openSpan)) {
	for i := range n {
		for k := range 2 {
			t := lr.tr
			if (i+k)%2 == 1 {
				t = nil
			}
			lr.attempted++
			d := t.timed("op."+name, nil, func(root *openSpan) { fn(i, t, root) })
			if t == nil {
				lr.untraced[name] = append(lr.untraced[name], d)
			}
		}
	}
}

// runTraced times calls into every layer's public functions in-process,
// on the workload's inputs, and reports the per-layer metrics.
func runTraced(cfg config, w *workload) (result, map[string]any, error) {
	dir, err := newRunDir(cfg)
	if err != nil {
		return result{}, nil, err
	}
	defer removeAll(dir)
	b := &bench{cfg: cfg, dir: dir}
	if err := w.prepare(b); err != nil {
		return result{}, nil, fmt.Errorf("preparing inputs: %w", err)
	}
	if b.sets == nil {
		if b.sets, err = extractCore(b.shapes, 2); err != nil {
			return result{}, nil, err
		}
	}
	lr := &layerRun{tr: newTracer(), m: map[string]metric{}, untraced: map[string]sample{}}
	defer func() {
		for _, db := range lr.dbs.opened {
			db.Close() // read-only use; the directory is removed next
		}
	}()
	steps := []struct {
		name string
		fn   func(*layerRun, *bench, *workload) error
	}{
		{"extraction", traceExtraction},
		{"journal", traceJournal},
		{"search", traceSearch},
		{"server", traceServer},
		{"scatter", traceScatter},
	}
	stepS := map[string]float64{}
	for _, st := range steps {
		t0 := time.Now()
		if err := st.fn(lr, b, w); err != nil {
			return result{}, nil, fmt.Errorf("traced %s layer: %w", st.name, err)
		}
		stepS[st.name] = time.Since(t0).Seconds()
	}
	spans := lr.tr.snapshot()
	self := selfTimes(spans)
	rootShare := map[string][]float64{}
	rootDur := map[string]sample{}
	for _, s := range spans {
		if s.Parent == 0 && strings.HasPrefix(s.Name, "op.") {
			op := strings.TrimPrefix(s.Name, "op.")
			rootShare[op] = append(rootShare[op], float64(self[s.ID])/float64(s.dur()))
			rootDur[op] = append(rootDur[op], s.dur())
		}
	}
	for _, op := range traceOps {
		lr.put("trace.unattributed_share."+op, medianF(rootShare[op]), "share")
		traced, _ := rootDur[op].percentile(50)
		plain, _ := lr.untraced[op].percentile(50)
		lr.put("trace.overhead_share."+op, float64(traced-plain)/float64(plain), "share")
	}
	spanFile := filepath.Join(filepath.Dir(cfg.work), "results", fmt.Sprintf("%s-trace-seed%d.spans.json", cfg.workload, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
		return result{}, nil, err
	}
	if err := lr.tr.write(spanFile); err != nil {
		return result{}, nil, fmt.Errorf("writing spans: %w", err)
	}
	benchRSS, _ := statusMB("/proc/self/status", "VmHWM") // reported only
	res := result{Correct: lr.failed == 0, Attempted: lr.attempted, Failed: lr.failed, Metrics: lr.m}
	report := map[string]any{
		"workload": w.name, "why": w.why, "mode": "traced per-layer run",
		"metrics": lr.m, "spans": len(spans), "span_file": spanFile,
		"step_seconds": stepS, "failures": lr.failures, "records": b.n,
		"benchmark_peak_rss_mb": benchRSS,
	}
	return res, report, nil
}

// --- extraction layers ---

func traceExtraction(lr *layerRun, b *bench, _ *workload) error {
	ex := features.NewExtractor(features.Options{})
	var voxels, removed, nodes, allocs, selfUS []float64
	stride := max(1, len(b.shapes)/traceMeshes)
	lr.op("extract", traceMeshes, func(i int, t *tracer, root *openSpan) {
		s := b.shapes[(i*stride)%len(b.shapes)]
		var m, sm, nm *geom.Mesh
		var err error
		var g, sk *voxel.Grid
		var gr *skelgraph.Graph
		t.timed("geom.read_off", root, func(*openSpan) { m, err = geom.ReadOFF(strings.NewReader(s.OFF)) })
		if err != nil {
			lr.fail("read_off %s: %v", s.Name, err)
			return
		}
		t.timed("core.sanitize", root, func(*openSpan) { sm, err = core.SanitizeMesh(m) })
		if err != nil {
			lr.fail("sanitize %s: %v", s.Name, err)
			return
		}
		nm = sm.Clone()
		dNorm := t.timed("moments.normalize", root, func(*openSpan) { _, err = moments.Normalize(nm, moments.DefaultTargetVolume) })
		if err != nil {
			lr.fail("normalize %s: %v", s.Name, err)
			return
		}
		dVox := t.timed("voxel.voxelize", root, func(*openSpan) { g, err = voxel.Voxelize(nm, features.DefaultOptions().VoxelResolution) })
		if err != nil {
			lr.fail("voxelize %s: %v", s.Name, err)
			return
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		dThin := t.timed("skeleton.thin", root, func(*openSpan) { sk = skeleton.Thin(g, skeleton.DefaultOptions()) })
		runtime.ReadMemStats(&ms1)
		dBuild := t.timed("skelgraph.build", root, func(*openSpan) { gr = skelgraph.Build(sk) })
		var set features.Set
		dExt := t.timed("features.extract", root, func(*openSpan) { set, err = ex.Extract(sm, features.CoreKinds) })
		if err != nil || len(set) != len(features.CoreKinds) {
			lr.fail("extract %s: %v", s.Name, err)
			return
		}
		if t != nil {
			voxels = append(voxels, float64(g.Count()))
			removed = append(removed, float64(g.Count()-sk.Count()))
			nodes = append(nodes, float64(gr.NumNodes()))
			allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
			selfUS = append(selfUS, us(dExt-dNorm-dVox-dThin-dBuild))
		}
	})
	for _, n := range []struct{ metric, span string }{
		{"geom.read_off_us", "geom.read_off"}, {"core.sanitize_us", "core.sanitize"},
		{"moments.normalize_us", "moments.normalize"}, {"voxel.voxelize_us", "voxel.voxelize"},
		{"skeleton.thin_us", "skeleton.thin"}, {"skelgraph.build_us", "skelgraph.build"},
		{"features.extract_us", "features.extract"},
	} {
		lr.medUS(n.metric, n.span, false)
	}
	lr.put("voxel.voxels_per_mesh", medianF(voxels), "count")
	lr.put("skeleton.voxels_removed_per_mesh", medianF(removed), "count")
	lr.put("skeleton.thin_allocs_per_mesh", medianF(allocs), "count")
	lr.put("skelgraph.nodes_per_mesh", medianF(nodes), "count")
	// Extract runs the same stages (its skeletal branch concurrently with
	// the moment descriptors); what is left is its own work.
	lr.put("features.extract_self_us", medianF(selfUS), "us")

	// Batch ingest through the engine's worker pool, on a fresh store.
	db, err := shapedb.Open("", features.Options{})
	if err != nil {
		return err
	}
	eng := core.NewEngine(db)
	gen := &batchGen{seed: b.cfg.seed, size: ingestBatch}
	for range traceBatches {
		var in struct{ Shapes []wireShape }
		_ = json.Unmarshal(gen.next().Body, &in) // our own encoding
		items := make([]core.IngestShape, len(in.Shapes))
		for i, s := range in.Shapes {
			m, err := geom.ReadOFF(strings.NewReader(s.MeshOFF))
			if err != nil {
				return err
			}
			items[i] = core.IngestShape{Name: s.Name, Group: s.Group, Mesh: m}
		}
		lr.attempted++
		lr.tr.timed("core.ingest_batch", nil, func(*openSpan) {
			if _, err := eng.IngestBatch(ctxBackground, items, nil); err != nil {
				lr.fail("ingest batch: %v", err)
			}
		})
	}
	lr.medUS("core.ingest_batch_us", "core.ingest_batch", false)
	return nil
}

// --- shapedb journal ---

// countingFS counts the syncs and written bytes of the durability path.
type countingFS struct {
	faultfs.FS
	syncs, bytes atomic.Int64
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) SyncDir(dir string) error {
	c.syncs.Add(1)
	return c.FS.SyncDir(dir)
}

type countingFile struct {
	faultfs.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// traceDBs are the stores the later traced steps search: main holds the
// workload's whole corpus, local what one serving process searches (a
// shard's slice on cluster_mixed), shards the cluster split when the
// workload already has one.
type traceDBs struct {
	main, local *shapedb.DB
	shards      []*shapedb.DB
	opened      []*shapedb.DB // durable stores to close at the end
}

func traceJournal(lr *layerRun, b *bench, w *workload) error {
	// Durable inserts of the workload's kind of record: real meshes on
	// ingest_upload, descriptor-only records elsewhere.
	type rec struct {
		name  string
		group int
		mesh  *geom.Mesh
		set   features.Set
	}
	var recs []rec
	if w == ingestUpload {
		for i, s := range b.shapes {
			recs = append(recs, rec{s.Name, s.Group, s.Mesh, b.sets[i]})
		}
	} else {
		for _, r := range b.orc.base[:traceInserts] {
			recs = append(recs, rec{r.Name, r.Group, r.Mesh, r.Features})
		}
	}
	// One store per side, so each holds every record once.
	var cfs [2]*countingFS
	var dbs [2]*shapedb.DB
	jdir := filepath.Join(b.dir, "journal-insert")
	for i := range dbs {
		cfs[i] = &countingFS{FS: faultfs.OS{}}
		var err error
		if dbs[i], err = shapedb.OpenFS(fmt.Sprintf("%s-%d", jdir, i), features.Options{}, cfs[i]); err != nil {
			return err
		}
	}
	jdir += "-0"
	var syncs, written []float64
	lr.op("journal_insert", len(recs), func(i int, t *tracer, root *openSpan) {
		r := recs[i]
		side := 0
		if t == nil {
			side = 1
		}
		c := cfs[side]
		s0, b0 := c.syncs.Load(), c.bytes.Load()
		t.timed("shapedb.insert", root, func(*openSpan) {
			if _, err := dbs[side].InsertWith(r.name, r.group, r.mesh, r.set, shapedb.InsertOpts{}); err != nil {
				lr.fail("insert: %v", err)
			}
		})
		if t != nil {
			syncs = append(syncs, float64(c.syncs.Load()-s0))
			written = append(written, float64(c.bytes.Load()-b0))
		}
	})
	lr.medUS("shapedb.insert_us", "shapedb.insert", false)
	lr.put("shapedb.syncs_per_shape", mean(syncs), "count")
	lr.put("shapedb.bytes_written_per_shape", mean(written), "bytes")
	for _, db := range dbs {
		if err := db.Close(); err != nil {
			return err
		}
	}

	// Reopen (journal replay) of the workload's stores: the prepared
	// directories, or on ingest_upload the corpus just written.
	dirs := b.dirs
	if w == ingestUpload {
		dirs = []string{jdir}
	}
	var jbytes int64
	var opened []*shapedb.DB
	var open time.Duration
	for _, d := range dirs {
		st, err := os.Stat(filepath.Join(d, "shapes.journal"))
		if err != nil {
			return err
		}
		jbytes += st.Size()
		t0 := time.Now()
		db, err := shapedb.OpenFS(d, features.Options{}, faultfs.OS{})
		open += time.Since(t0)
		if err != nil {
			return err
		}
		opened = append(opened, db)
	}
	records := 0
	for _, db := range opened {
		records += db.Len()
	}
	lr.put("shapedb.journal_bytes_per_record", float64(jbytes)/float64(records), "bytes")
	lr.put("shapedb.open_s", open.Seconds(), "s")
	lr.put("shapedb.replay_records_per_s", float64(records)/open.Seconds(), "1/s")

	lr.dbs = traceDBs{main: opened[0], local: opened[0], opened: opened}
	if len(opened) > 1 {
		lr.dbs = traceDBs{main: b.orc.db, local: opened[0], shards: opened, opened: opened}
	}
	if w == searchScan {
		b.orc = nil // the reopened store replaces it; free the memory
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// --- index and search ---

func traceSearch(lr *layerRun, b *bench, _ *workload) error {
	db := lr.dbs.local
	eng := core.NewEngine(db)
	// colstore builds, on fresh managers.
	for _, kind := range searchKinds {
		for range traceColBuilds {
			lr.attempted++
			lr.tr.timed("colstore.build", nil, func(*openSpan) {
				if _, err := colstore.NewManager(db).Store(kind); err != nil {
					lr.fail("colstore build: %v", err)
				}
			})
		}
	}
	builds := byName(lr.tr.snapshot(), false)["colstore.build"]
	v, _ := builds.percentile(50)
	lr.put("colstore.build_ms", ms(v), "ms")

	g := &searchGen{rng: rand.New(rand.NewSource(b.cfg.seed*43 + 9)), base: b.sets, thresh: b.thresh}
	var accesses, rows, evals, seeded, results []float64
	var selfUS []float64
	n := traceQueries * len(searchKinds)
	lr.op("search", n, func(i int, t *tracer, root *openSpan) {
		kind := searchKinds[i%len(searchKinds)]
		q, base := g.vector(kind)
		w := g.weights(kind)
		set := features.Set{kind: q}
		st, err := eng.ColStore().Store(kind)
		if err != nil {
			lr.fail("colstore: %v", err)
			return
		}
		a0, _, _ := db.IndexStats(kind)
		t.timed("shapedb.knn", root, func(*openSpan) { _, err = db.KNN(kind, q, 10) })
		a1, _, _ := db.IndexStats(kind)
		if err != nil {
			lr.fail("knn: %v", err)
			return
		}
		// The colstore search and the engine search it serves go first on
		// alternate queries, so neither always runs with warm caches.
		var stats colstore.Stats
		var topk []core.Result
		var dCol, dCore time.Duration
		var colErr, coreErr error
		colCall := func() {
			dCol = t.timed("colstore.search_topk", root, func(*openSpan) { _, stats, colErr = st.SearchTopK(ctxBackground, q, w, 10, 0) })
		}
		coreCall := func() {
			dCore = t.timed("core.search_weighted", root, func(*openSpan) {
				topk, coreErr = eng.SearchTopK(ctxBackground, set, core.Options{Feature: kind, K: 10, Weights: w})
			})
		}
		if i%4 < 2 {
			colCall()
			coreCall()
		} else {
			coreCall()
			colCall()
		}
		if colErr != nil {
			lr.fail("colstore topk: %v", colErr)
			return
		}
		if coreErr != nil || len(topk) != min(10, db.Len()) {
			lr.fail("weighted search: %v (%d rows)", coreErr, len(topk))
			return
		}
		t.timed("core.search_unweighted", root, func(*openSpan) {
			_, err = eng.SearchTopK(ctxBackground, set, core.Options{Feature: kind, K: 10})
		})
		if err != nil {
			lr.fail("unweighted search: %v", err)
			return
		}
		thr := g.thresh.of(kind, base)
		radius := (1 - thr) * db.DMax(kind)
		t.timed("colstore.search_radius", root, func(*openSpan) { _, _, err = st.SearchRadius(ctxBackground, q, w, radius, 0) })
		if err != nil {
			lr.fail("colstore radius: %v", err)
			return
		}
		var th []core.Result
		t.timed("core.search_threshold", root, func(*openSpan) {
			th, err = eng.SearchThreshold(ctxBackground, set, core.Options{Feature: kind, Threshold: thr, Weights: w})
		})
		if err != nil {
			lr.fail("threshold search: %v", err)
			return
		}
		if i < traceExactScans {
			var exact []core.Result
			t.timed("core.exact_scan", root, func(*openSpan) {
				exact, err = eng.SearchTopK(ctxBackground, set, core.Options{Feature: kind, K: 10, Weights: w, Mode: core.ScanExact})
			})
			if err != nil || !sameResults(exact, topk) {
				lr.fail("exact scan disagrees with the two-stage answer (%v)", err)
			}
		}
		if t != nil {
			accesses = append(accesses, float64(a1-a0))
			rows = append(rows, float64(stats.Rows))
			evals = append(evals, float64(stats.ExactEvals))
			if stats.TreeSeeded {
				seeded = append(seeded, 1)
			} else {
				seeded = append(seeded, 0)
			}
			results = append(results, float64(len(th)))
			selfUS = append(selfUS, us(dCore-dCol))
		}
	})
	for _, n := range []struct{ metric, span string }{
		{"shapedb.knn_us", "shapedb.knn"}, {"colstore.search_topk_us", "colstore.search_topk"},
		{"colstore.search_radius_us", "colstore.search_radius"}, {"core.search_weighted_us", "core.search_weighted"},
		{"core.search_unweighted_us", "core.search_unweighted"}, {"core.search_threshold_us", "core.search_threshold"},
		{"core.exact_scan_us", "core.exact_scan"},
	} {
		lr.medUS(n.metric, n.span, false)
	}
	lr.put("rtree.node_accesses_per_query", mean(accesses), "count")
	lr.put("colstore.rows_per_query", mean(rows), "count")
	lr.put("colstore.exact_evals_per_query", mean(evals), "count")
	lr.put("colstore.prune_share", 1-mean(evals)/mean(rows), "share")
	lr.put("colstore.tree_seeded_share", mean(seeded), "share")
	lr.put("core.threshold_results_per_query", mean(results), "count")
	// The weighted engine search minus the colstore search it runs.
	lr.put("core.search_self_us", medianF(selfUS), "us")
	return nil
}

func sameResults(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- server ---

// readRequests returns the first n read requests of the workload's own
// streams, interleaving connections and skipping writes. A stream that
// yields no read in 64 requests (a writer) is dropped.
func readRequests(b *bench, w *workload, n int) []request {
	streams := w.streams(b)
	var out []request
	for len(out) < n && len(streams) > 0 {
		live := streams[:0]
		for _, s := range streams {
			for range 64 {
				if r := s.next(); r.Op != opInsert && r.Op != opBatchInsert {
					out = append(out, r)
					live = append(live, s)
					break
				}
			}
		}
		streams = live
	}
	return out[:min(n, len(out))]
}

func traceServer(lr *layerRun, b *bench, w *workload) error {
	eng := core.NewEngine(lr.dbs.main)
	// One handler and one loopback server per side, each with its own
	// result cache, so both sides see the same cache states.
	type stack struct {
		direct *server.Server
		c      *conn
	}
	var stacks [2]stack
	for i := range stacks {
		viaNet := httptest.NewServer(server.New(eng))
		defer viaNet.Close()
		stacks[i] = stack{direct: server.New(eng), c: newConn(viaNet.URL)}
		defer stacks[i].c.close()
	}
	n := traceRequests
	if w == ingestUpload {
		n = traceUploadReqCap
	}
	reqs := readRequests(b, w, n)
	var bodyBytes, hits, degraded, shed, selfUS, loopUS []float64
	lr.op("handler", len(reqs), func(i int, t *tracer, root *openSpan) {
		req := reqs[i]
		st := stacks[0]
		if t == nil {
			st = stacks[1]
		}
		// The engine call and the handler go first on alternate requests,
		// so neither always runs with warm caches.
		var want []core.Result
		var err error
		var dEng, dH time.Duration
		rec := httptest.NewRecorder()
		engCall := func() { dEng = t.timed("engine.direct", root, func(*openSpan) { want, err = directSearch(eng, req) }) }
		handlerCall := func() {
			hreq := httptest.NewRequest(req.Method, req.Path, bytes.NewReader(req.Body))
			dH = t.timed("server.search_handler", root, func(*openSpan) { st.direct.ServeHTTP(rec, hreq) })
		}
		if i%4 < 2 {
			engCall()
			handlerCall()
		} else {
			handlerCall()
			engCall()
		}
		if err != nil {
			lr.fail("direct search: %v", err)
			return
		}
		resp := response{status: rec.Code, header: rec.Header(), body: rec.Body.Bytes(), lat: dH}
		if fail, rows, _ := check(req, resp); fail != "" {
			lr.fail("handler: %s", fail)
			return
		} else if !sameRows(rows, want) {
			lr.fail("handler answer differs from the engine's for %s", req.Body)
			return
		}
		var nr response
		dNet := t.timed("net.loopback", root, func(*openSpan) { nr = st.c.do(req.Method, req.Path, req.Body) })
		if fail, _, _ := check(req, nr); fail != "" {
			lr.fail("loopback: %s", fail)
			return
		}
		if t == nil {
			return
		}
		loopUS = append(loopUS, us(dNet-dH))
		hit := rec.Header().Get(server.CacheHeader) == "hit"
		bodyBytes = append(bodyBytes, float64(len(resp.body)))
		hits = append(hits, b2f(hit))
		degraded = append(degraded, b2f(rec.Header().Get(server.DegradedHeader) != ""))
		shed = append(shed, b2f(rec.Code == http.StatusTooManyRequests))
		if !hit {
			selfUS = append(selfUS, us(dH-dEng))
		}
	})
	lr.medUS("server.search_handler_us", "server.search_handler", false)
	lr.put("server.search_handler_self_us", medianF(selfUS), "us")
	lr.put("server.response_bytes_per_search", mean(bodyBytes), "bytes")
	lr.put("server.cache_hit_share", mean(hits), "share")
	lr.put("server.degraded_share", mean(degraded), "share")
	lr.put("server.shed_share", mean(shed), "share")
	// Per request: the same request over loopback HTTP minus in-process.
	lr.put("net.loopback_overhead_us", medianF(loopUS), "us")

	// Batch handler on a fresh in-memory node.
	db, err := shapedb.Open("", features.Options{})
	if err != nil {
		return err
	}
	bsrv := server.New(core.NewEngine(db))
	gen := &batchGen{seed: b.cfg.seed + 1, size: ingestBatch}
	for range traceBatches {
		req := gen.next()
		lr.attempted++
		rec := httptest.NewRecorder()
		lr.tr.timed("server.batch_handler", nil, func(*openSpan) {
			bsrv.ServeHTTP(rec, httptest.NewRequest(req.Method, req.Path, bytes.NewReader(req.Body)))
		})
		if rec.Code != http.StatusCreated {
			lr.fail("batch handler: %d %s", rec.Code, rec.Body.Bytes())
		}
	}
	lr.medUS("server.batch_handler_us", "server.batch_handler", false)
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// directSearch is the engine call a search handler makes for req.
func directSearch(eng *core.Engine, req request) ([]core.Result, error) {
	var q features.Set
	switch {
	case req.QueryID != 0:
		set, err := eng.QueryFeatures(req.QueryID)
		if err != nil {
			return nil, err
		}
		q = set
	case len(req.Vector) > 0:
		q = features.Set{req.Feature: req.Vector}
	default:
		var body searchBody
		if err := json.Unmarshal(req.Body, &body); err != nil {
			return nil, err
		}
		m, err := geom.ReadOFF(strings.NewReader(body.MeshOFF))
		if err != nil {
			return nil, err
		}
		if q, _, _, err = eng.ExtractUntrusted(m, features.CoreKinds); err != nil {
			return nil, err
		}
	}
	opt := core.Options{Feature: req.Feature, Weights: req.Weights}
	if req.Threshold != nil {
		opt.Threshold = *req.Threshold
		return eng.SearchThreshold(ctxBackground, q, opt)
	}
	opt.K = req.K
	if req.QueryID != 0 {
		opt.K++
	}
	res, err := eng.SearchTopK(ctxBackground, q, opt)
	if err != nil {
		return nil, err
	}
	if req.QueryID != 0 {
		res = core.ExcludeID(res, req.QueryID)
	}
	return res[:min(len(res), req.K)], nil
}

// sameRows compares wire rows with engine results. Unweighted answers may
// order equal distances differently between two R-tree traversals, so
// rows are compared by id and distance as sets per distance.
func sameRows(rows []wireResult, want []core.Result) bool {
	if len(rows) != len(want) {
		return false
	}
	got := make(map[[2]float64]int)
	for i := range rows {
		got[[2]float64{float64(rows[i].ID), rows[i].Distance}]++
		got[[2]float64{float64(want[i].ID), want[i].Distance}]--
	}
	for _, n := range got {
		if n != 0 {
			return false
		}
	}
	return true
}

// --- scatter ---

// countingTransport times and counts shard calls, attaching each as a
// span under the span found in the request's context.
type countingTransport struct {
	inner http.RoundTripper
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanFrom(req.Context())
	var sp *openSpan
	if parent != nil {
		sp = parent.t.start("scatter.shard_call", parent)
	}
	resp, err := c.inner.RoundTrip(req)
	if err == nil {
		// Read the body here so the span covers the whole call.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			err = rerr
		} else {
			resp.Body = io.NopCloser(bytes.NewReader(body))
		}
	}
	sp.end()
	return resp, err
}

func traceScatter(lr *layerRun, b *bench, w *workload) error {
	shards := lr.dbs.shards
	if shards == nil {
		ring, err := scatter.NewRing(clusterShards)
		if err != nil {
			return err
		}
		per := make([][]int64, clusterShards)
		for _, id := range lr.dbs.main.IDs() {
			per[ring.Owner(id)] = append(per[ring.Owner(id)], id)
		}
		for _, ids := range per {
			db, err := shapedb.Open("", features.Options{})
			if err != nil {
				return err
			}
			frames, err := lr.dbs.main.ExportRecords(ids)
			if err != nil {
				return err
			}
			if _, err := db.ImportFrames(frames); err != nil {
				return err
			}
			shards = append(shards, db)
		}
	}
	ct := &countingTransport{inner: &http.Transport{MaxIdleConnsPerHost: 8}}
	var specs []scatter.ShardSpec
	for i, db := range shards {
		// Shard caches are off: both coordinators below must find the
		// shards in the same state.
		srv, err := server.NewWithConfig(core.NewEngine(db), server.Config{CacheEntries: -1}).SetShard(i, len(shards))
		if err != nil {
			return err
		}
		hs := httptest.NewServer(srv)
		defer hs.Close()
		specs = append(specs, scatter.ShardSpec{Endpoints: []string{hs.URL}, Transport: ct})
	}
	// One coordinator (with its result cache) per side.
	var coords [2]*scatter.Coordinator
	var fronts [2]*server.Server
	cdb, err := shapedb.Open("", features.Options{})
	if err != nil {
		return err
	}
	for i := range coords {
		if coords[i], err = scatter.New(specs, scatter.Policy{}); err != nil {
			return err
		}
		fronts[i] = server.New(core.NewEngine(cdb)).SetCoordinator(coords[i])
	}
	ex := core.NewEngine(cdb)

	n := traceClusterQs
	if w == ingestUpload {
		n = traceUploadReqCap
	}
	reqs := readRequests(b, w, n)
	hitSpan := map[int64]bool{}
	byIDSpan := map[int64]bool{}
	lr.op("cluster_search", len(reqs), func(i int, t *tracer, root *openSpan) {
		req := reqs[i]
		coord, front := coords[0], fronts[0]
		if t == nil {
			coord, front = coords[1], fronts[1]
		}
		ctx := context.Background()
		rec := httptest.NewRecorder()
		hs := t.start("scatter.coordinator", root)
		hreq := httptest.NewRequest(req.Method, req.Path, bytes.NewReader(req.Body)).WithContext(withSpan(ctx, hs))
		front.ServeHTTP(rec, hreq)
		hs.end()
		resp := response{status: rec.Code, header: rec.Header(), body: rec.Body.Bytes()}
		fail, rows, _ := check(req, resp)
		if fail != "" {
			lr.fail("coordinator: %s", fail)
			return
		}
		if hs != nil {
			hitSpan[hs.s.ID] = rec.Header().Get(server.CacheHeader) == "hit"
			byIDSpan[hs.s.ID] = req.QueryID != 0
		}
		// The same query as direct calls: owner fetch, bounds, search.
		vec := req.Vector
		feature := req.Feature.String()
		if req.QueryID != 0 {
			var feats map[string][]float64
			var err error
			t.timed("scatter.owner_fetch", root, func(sp *openSpan) {
				err = coord.Owner(req.QueryID).Call(withSpan(ctx, sp), http.MethodGet,
					fmt.Sprintf("/api/shapes/%d/features", req.QueryID), nil, &feats)
			})
			if err != nil {
				lr.fail("owner fetch: %v", err)
				return
			}
			vec = feats[feature]
		} else if vec == nil {
			var body searchBody
			_ = json.Unmarshal(req.Body, &body) // our own encoding
			m, err := geom.ReadOFF(strings.NewReader(body.MeshOFF))
			if err != nil {
				lr.fail("query mesh: %v", err)
				return
			}
			var set features.Set
			t.timed("features.extract_query", root, func(*openSpan) { set, _, _, err = ex.ExtractUntrusted(m, features.CoreKinds) })
			if err != nil {
				lr.fail("query extraction: %v", err)
				return
			}
			vec = set[req.Feature]
		}
		var bs *scatter.BoundsSet
		var err error
		t.timed("scatter.bounds_round", root, func(sp *openSpan) { bs, err = coord.CollectBounds(withSpan(ctx, sp), feature) })
		if err != nil {
			lr.fail("bounds round: %v", err)
			return
		}
		var out *scatter.Outcome
		t.timed("scatter.search_round", root, func(sp *openSpan) {
			out, err = coord.SearchBounds(withSpan(ctx, sp), scatter.Query{
				Feature: feature, Vector: vec, Weights: req.Weights, Threshold: req.Threshold,
				K: req.K, ExcludeID: req.QueryID,
			}, bs)
		})
		if err != nil || len(out.Missing) > 0 {
			lr.fail("search round: %v (missing %v)", err, out)
			return
		}
		if !sameWire(rows, out.Results) {
			lr.fail("coordinator answer differs from its direct rounds for %s", req.Body)
		}
	})
	// Owner fetches of stored records, and id allocations.
	ids := lr.dbs.main.IDs()
	rng := rand.New(rand.NewSource(b.cfg.seed*59 + 1))
	for i := range traceAllocs {
		id := ids[rng.Intn(len(ids))]
		lr.attempted += 2
		var feats map[string][]float64
		lr.tr.timed("scatter.owner_fetch", nil, func(sp *openSpan) {
			if err := coords[0].Owner(id).Call(withSpan(context.Background(), sp), http.MethodGet,
				fmt.Sprintf("/api/shapes/%d/features", id), nil, &feats); err != nil {
				lr.fail("owner fetch: %v", err)
			}
		})
		lr.tr.timed("scatter.alloc_id", nil, func(*openSpan) {
			if _, err := coords[0].AllocID(context.Background(), i%len(shards)); err != nil {
				lr.fail("alloc id: %v", err)
			}
		})
	}

	spans := lr.tr.snapshot()
	self := selfTimes(spans)
	calls := map[int64]int{}
	slowest := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Name == "scatter.shard_call" {
			calls[s.Parent]++
			slowest[s.Parent] = max(slowest[s.Parent], s.dur())
		}
	}
	var perQuery, perHit, extra, slowShare, coordSelf []float64
	for _, s := range spans {
		switch s.Name {
		case "scatter.coordinator":
			n := float64(calls[s.ID])
			coordSelf = append(coordSelf, us(self[s.ID]))
			expected := 2.0 * float64(len(shards))
			if hitSpan[s.ID] {
				perHit = append(perHit, n)
				expected = float64(len(shards))
			} else {
				perQuery = append(perQuery, n)
				if byIDSpan[s.ID] {
					expected++
				}
			}
			extra = append(extra, n-expected)
		case "scatter.search_round":
			slowShare = append(slowShare, float64(slowest[s.ID])/float64(s.dur()))
		}
	}
	lr.medUS("scatter.bounds_round_us", "scatter.bounds_round", false)
	lr.medUS("scatter.search_round_us", "scatter.search_round", false)
	lr.medUS("scatter.owner_fetch_us", "scatter.owner_fetch", false)
	lr.medUS("scatter.shard_call_us", "scatter.shard_call", false)
	lr.medUS("scatter.alloc_id_us", "scatter.alloc_id", false)
	lr.put("scatter.shard_calls_per_query", mean(perQuery), "count")
	lr.put("scatter.shard_calls_per_cache_hit", mean(perHit), "count")
	lr.put("scatter.extra_attempts_per_query", mean(extra), "count")
	lr.put("scatter.slowest_shard_share", medianF(slowShare), "share")
	lr.put("scatter.coordinator_self_us", medianF(coordSelf), "us")
	return nil
}

// sameWire compares a coordinator's answer with the direct rounds' merge
// bit for bit.
func sameWire(rows []wireResult, want []scatter.Result) bool {
	if len(rows) != len(want) {
		return false
	}
	for i, r := range rows {
		if wireResult(want[i]) != r {
			return false
		}
	}
	return true
}
