package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"threedess/internal/core"
	"threedess/internal/features"
	"threedess/internal/scatter"
	"threedess/internal/shapedb"
)

// Corpus sizes of the pre-populated workloads. They are sized so one run
// (three set-ups that each replay the journal, the timed window and the
// oracle) stays well inside a minute on a 2-vCPU host; see README.md.
const (
	scanRecords    = 40000
	clusterRecords = 30000
	clusterShards  = 3
	ingestBatch    = 4 // shapes per timed batch insert
	setupBatch     = 16
	setupRounds    = 3
	keepEvery      = 64 // one answer in keepEvery is checked by the oracle
)

// bench is one run's state: the configuration, the seed's corpus and the
// oracle over whatever the servers hold.
type bench struct {
	cfg    config
	dir    string         // this run's scratch directory
	shapes []genShape     // the seed's generated corpus
	sets   []features.Set // their core descriptors (search workloads)
	orc    *oracle        // nil while released for the timed window; see oracle()
	// cluster: the oracle answers unweighted searches the way a
	// coordinator does (see oracle.uniformByID).
	cluster bool
	n       int // records the servers start with
	thresh  thresholds
	dirs    []string // prepared data directories
}

// workload is one traffic mix against one server topology.
type workload struct {
	name string
	why  string
	// prepare builds inputs and data directories; it is not timed.
	prepare func(b *bench) error
	// launch starts the servers of set-up round r and waits until they
	// are ready.
	launch func(b *bench, r int) (*fleet, error)
	// warm sends one request per operation type and checks each answer;
	// it is the last step of set-up.
	warm func(b *bench, f *fleet) error
	// streams are the closed loop's connections for the timed window.
	streams func(b *bench) []stream
	// verify checks state after the window: acknowledged writes readable,
	// counts, and the oracle over kept answers. It returns the number of
	// answers the oracle compared.
	verify func(b *bench, f *fleet, l *ledger) (int, error)
	// unit is what throughput_per_s counts.
	unit string
}

var workloads = []*workload{ingestUpload, searchScan, clusterMixed}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- ingest_upload ---

var ingestUpload = &workload{
	name: "ingest_upload",
	why:  "feature extraction is nearly all the CPU: batch ingest beside query-by-upload on one durable node, exact scans over <1k records",
	unit: "shapes ingested",
	prepare: func(b *bench) error {
		var err error
		b.shapes, err = generate(b.cfg.seed)
		b.n = len(b.shapes)
		return err
	},
	launch: func(b *bench, r int) (*fleet, error) {
		dir := filepath.Join(b.dir, fmt.Sprintf("node-%d", r))
		p, err := startServer(b.cfg.bin, "node", b.dir, "-data", dir)
		if err != nil {
			return nil, err
		}
		f := &fleet{procs: []*serverProc{p}, front: p}
		if err := readyAll(f); err != nil {
			f.stop()
			return nil, err
		}
		// Set-up ingests the seed's corpus, so ids 1..113 are its shapes.
		c := newConn(p.url)
		defer c.close()
		for lo := 0; lo < len(b.shapes); lo += setupBatch {
			var shapes []wireShape
			var names []string
			for _, s := range b.shapes[lo:min(lo+setupBatch, len(b.shapes))] {
				shapes = append(shapes, wireShape{Name: s.Name, Group: s.Group, MeshOFF: s.OFF})
				names = append(names, s.Name)
			}
			req := batchRequest(shapes, names)
			fail, _, ids := check(req, c.do(req.Method, req.Path, req.Body))
			if fail == "" && ids[0] != int64(lo+1) {
				fail = fmt.Sprintf("corpus batch got ids from %d, want %d", ids[0], lo+1)
			}
			if fail != "" {
				f.stop()
				return nil, fmt.Errorf("set-up ingest: %s", fail)
			}
		}
		return f, nil
	},
	warm: func(b *bench, f *fleet) error {
		g := &uploadGen{seed: b.cfg.seed + 7777, rng: rand.New(rand.NewSource(b.cfg.seed + 7777)), stored: b.shapes}
		c := newConn(f.front.url)
		defer c.close()
		for range 10 { // covers every descriptor, weighted and not, and a self-upload
			req := g.next()
			if fail, _, _ := check(req, c.do(req.Method, req.Path, req.Body)); fail != "" {
				return fmt.Errorf("warm-up %s: %s", req.Op, fail)
			}
		}
		return nil
	},
	streams: func(b *bench) []stream {
		return []stream{
			&batchGen{seed: b.cfg.seed, size: ingestBatch},
			&uploadGen{seed: b.cfg.seed, rng: rand.New(rand.NewSource(b.cfg.seed*31 + 1)), stored: b.shapes},
		}
	},
	verify: func(b *bench, f *fleet, l *ledger) (int, error) {
		_, err := verifyWrites(f.front.url, b.n, l.acks)
		// Self-uploads are checked on the request path (first row, distance
		// 0); count them as oracle comparisons.
		return len(l.lat[opUploadSelf]), err
	},
}

// --- search_scan ---

var searchScan = &workload{
	name:    "search_scan",
	why:     "read-only search over 40k descriptor records: two-stage colstore scans, R-tree kNN, ranking and JSON; journal replay dominates set-up",
	unit:    "searches answered",
	prepare: func(b *bench) error { return prepareDescriptors(b, scanRecords, 1, false) },
	launch: func(b *bench, r int) (*fleet, error) {
		p, err := startServer(b.cfg.bin, "node", b.dir, "-data", b.dirs[0])
		if err != nil {
			return nil, err
		}
		f := &fleet{procs: []*serverProc{p}, front: p}
		if err := readyAll(f); err != nil {
			f.stop()
			return nil, err
		}
		return f, nil
	},
	warm: func(b *bench, f *fleet) error {
		return warmSearch(b, f, []string{opWeighted, opUnweighted, opThreshold, opByID})
	},
	streams: func(b *bench) []stream {
		perm := rand.New(rand.NewSource(b.cfg.seed*131 + 7)).Perm(b.n)
		var out []stream
		for c := range 2 {
			out = append(out, &searchGen{
				rng:    rand.New(rand.NewSource(b.cfg.seed*1009 + int64(c))),
				base:   b.sets,
				mix:    []share{{opWeighted, 0.40}, {opUnweighted, 0.25}, {opThreshold, 0.20}, {opByID, 0.15}},
				thresh: b.thresh,
				byID:   uniqueIDs(perm, c, 2),
			})
		}
		return out
	},
	verify: func(b *bench, f *fleet, l *ledger) (int, error) {
		if _, err := verifyWrites(f.front.url, b.n, nil); err != nil {
			return 0, err
		}
		orc, err := b.oracle()
		if err != nil {
			return 0, err
		}
		return orc.verifyKept(l.kept, nil)
	},
}

// --- cluster_mixed ---

var clusterMixed = &workload{
	name:    "cluster_mixed",
	why:     "scatter-gather through a coordinator over 3 shard processes: bounds and search rounds, merge, by-id cache hits and routed inserts",
	unit:    "requests answered",
	prepare: func(b *bench) error { return prepareDescriptors(b, clusterRecords, clusterShards, true) },
	launch: func(b *bench, r int) (*fleet, error) {
		f := &fleet{}
		var urls []string
		for i, dir := range b.dirs {
			p, err := startServer(b.cfg.bin, fmt.Sprintf("shard-%d", i), b.dir,
				"-data", dir, "-shard-of", fmt.Sprint(i), "-shards", fmt.Sprint(clusterShards))
			if err != nil {
				f.stop()
				return nil, err
			}
			f.procs = append(f.procs, p)
			urls = append(urls, p.url)
		}
		if err := readyAll(f); err != nil {
			f.stop()
			return nil, err
		}
		p, err := startServer(b.cfg.bin, "coordinator", b.dir, "-coordinator", strings.Join(urls, ","))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, p)
		f.front = p
		if err := p.waitReady(context.Background()); err != nil {
			f.stop()
			return nil, err
		}
		return f, nil
	},
	warm: func(b *bench, f *fleet) error {
		return warmSearch(b, f, []string{opWeighted, opThreshold, opByID})
	},
	streams: func(b *bench) []stream {
		hotRng := rand.New(rand.NewSource(b.cfg.seed*577 + 3))
		hot := make([]int64, 256)
		for i, j := range hotRng.Perm(b.n)[:len(hot)] {
			hot[i] = int64(j + 1)
		}
		var out []stream
		for c := range 2 {
			rng := rand.New(rand.NewSource(b.cfg.seed*2003 + int64(c)))
			out = append(out, &searchGen{
				rng:    rng,
				base:   b.sets,
				mix:    []share{{opWeighted, 0.55}, {opByID, 0.30}, {opThreshold, 0.14}, {opInsert, 0.01}},
				thresh: b.thresh,
				byID:   zipfIDs(rng, hot),
				tag:    fmt.Sprintf("%d-%d", b.cfg.seed, c),
			})
		}
		return out
	},
	verify: func(b *bench, f *fleet, l *ledger) (int, error) {
		writes, err := verifyWrites(f.front.url, b.n, l.acks)
		if err != nil {
			return 0, err
		}
		orc, err := b.oracle()
		if err != nil {
			return 0, err
		}
		return orc.verifyKept(l.kept, writes)
	},
}

// prepareDescriptors extracts the seed corpus, builds n jittered
// descriptor records as the oracle's store, lands them in shards durable
// directories (split by the cluster ring when shards > 1) and calibrates
// one similarity threshold per searched descriptor.
func prepareDescriptors(b *bench, n, shards int, cluster bool) error {
	var err error
	if b.shapes, err = generate(b.cfg.seed); err != nil {
		return err
	}
	if b.sets, err = extractCore(b.shapes, 2); err != nil {
		return err
	}
	db, err := jitterCorpus(b.cfg.seed, b.shapes, b.sets, n)
	if err != nil {
		return err
	}
	b.n, b.cluster = n, cluster
	b.orc = newOracle(db, cluster)
	b.dirs = []string{filepath.Join(b.dir, "data")}
	var ring *scatter.Ring
	if shards > 1 {
		b.dirs = shardDirs(b.dir, shards)
		if ring, err = scatter.NewRing(shards); err != nil {
			return err
		}
	}
	if err := importDirs(db, b.dirs, ring); err != nil {
		return err
	}
	b.thresh, err = calibrate(b)
	return err
}

// oracle returns the oracle, rebuilding its store from the seed (the
// same records prepareDescriptors imported) after it was released.
func (b *bench) oracle() (*oracle, error) {
	if b.orc == nil {
		db, err := jitterCorpus(b.cfg.seed, b.shapes, b.sets, b.n)
		if err != nil {
			return nil, err
		}
		b.orc = newOracle(db, b.cluster)
	}
	return b.orc, nil
}

// calibrate picks, per searched descriptor and base descriptor set, the
// similarity of the 100th nearest record to the unjittered base vector, so
// threshold searches around it return tens to hundreds of rows.
func calibrate(b *bench) (thresholds, error) {
	eng := core.NewEngine(b.orc.db) // two-stage: fast, and exact
	out := thresholds{}
	for _, kind := range searchKinds {
		ts := make([]float64, len(b.sets))
		for i, set := range b.sets {
			q := set[kind]
			res, err := eng.SearchTopK(ctxBackground, features.Set{kind: q}, core.Options{Feature: kind, K: 100, Weights: uniform(len(q))})
			if err != nil {
				return nil, err
			}
			ts[i] = res[len(res)-1].Similarity
		}
		out[kind] = ts
	}
	return out, nil
}

// warmSearch sends each operation for each searched descriptor once and
// checks the answers against the oracle. It builds every colstore the
// window will use, so set-up includes them.
func warmSearch(b *bench, f *fleet, ops []string) error {
	g := &searchGen{
		rng: rand.New(rand.NewSource(b.cfg.seed*7 + 11)), base: b.sets, thresh: b.thresh,
		byID: func(r *rand.Rand) int64 { return int64(r.Intn(b.n) + 1) },
	}
	c := newConn(f.front.url)
	defer c.close()
	for _, op := range ops {
		for _, kind := range searchKinds {
			req := g.make(op, kind)
			r := c.do(req.Method, req.Path, req.Body)
			fail, _, _ := check(req, r)
			if fail == "" {
				fail, _ = b.orc.check(kept{req: req, body: r.body})
			}
			if fail != "" {
				return fmt.Errorf("warm-up %s on %s: %s", op, kind, fail)
			}
		}
	}
	return nil
}

// readyAll waits for every process of the fleet to answer /readyz.
func readyAll(f *fleet) error {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	errs := make([]error, len(f.procs))
	var wg sync.WaitGroup
	for i, p := range f.procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = p.waitReady(ctx)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// verifyWrites checks that every acknowledged write reads back under its
// id and name and that the store holds exactly base + acknowledged shapes.
// It returns the written records, features as stored, in acknowledgment
// order, for the oracle.
func verifyWrites(url string, base int, acks []ack) ([]*shapedb.Record, error) {
	c := newConn(url)
	defer c.close()
	var st struct {
		Shapes int `json:"shapes"`
	}
	if err := c.getJSON("/api/stats", &st); err != nil {
		return nil, err
	}
	if st.Shapes != base+len(acks) {
		return nil, fmt.Errorf("store holds %d shapes, want %d base + %d acknowledged", st.Shapes, base, len(acks))
	}
	seen := make(map[int64]bool, len(acks))
	out := make([]*shapedb.Record, 0, len(acks))
	for _, a := range acks {
		if seen[a.ID] {
			return nil, fmt.Errorf("id %d acknowledged twice", a.ID)
		}
		seen[a.ID] = true
		var info struct {
			ID    int64  `json:"id"`
			Name  string `json:"name"`
			Group int    `json:"group"`
		}
		if err := c.getJSON(fmt.Sprintf("/api/shapes/%d", a.ID), &info); err != nil {
			return nil, fmt.Errorf("acknowledged write %d: %w", a.ID, err)
		}
		if info.ID != a.ID || info.Name != a.Name {
			return nil, fmt.Errorf("acknowledged write %d (%s) reads back as %d (%s)", a.ID, a.Name, info.ID, info.Name)
		}
		var raw map[string][]float64
		if err := c.getJSON(fmt.Sprintf("/api/shapes/%d/features", a.ID), &raw); err != nil {
			return nil, fmt.Errorf("features of write %d: %w", a.ID, err)
		}
		set := make(features.Set, len(raw))
		for name, v := range raw {
			k, err := features.ParseKind(name)
			if err != nil {
				return nil, err
			}
			set[k] = v
		}
		out = append(out, &shapedb.Record{ID: a.ID, Name: info.Name, Group: info.Group, Mesh: boxMesh, Features: set})
	}
	return out, nil
}

// bracket is the server state read around the timed window.
type bracket struct {
	Stats       map[string]json.RawMessage `json:"stats"`
	Maintenance map[string]json.RawMessage `json:"maintenance,omitempty"`
}

// Fields of /api/stats and /api/admin/maintenance the bracket keeps.
var (
	statsFields       = []string{"shapes", "cache", "gate_in_flight", "gate_capacity", "tier", "latency_ewma_ms", "breaker_opens", "read_only"}
	maintenanceFields = []string{"running", "scrub_runs", "reconcile_runs", "compact_runs", "journal"}
)

// readBracket reads /api/stats from every process and
// /api/admin/maintenance from every process that holds data.
func readBracket(f *fleet) (map[string]bracket, error) {
	out := make(map[string]bracket)
	for _, p := range f.procs {
		c := newConn(p.url)
		var br bracket
		err := c.getJSON("/api/stats", &br.Stats)
		if err == nil && p.name != "coordinator" {
			err = c.getJSON("/api/admin/maintenance", &br.Maintenance)
		}
		c.close()
		if err != nil {
			return nil, fmt.Errorf("reading state of %s: %w", p.name, err)
		}
		br.Stats = pick(br.Stats, statsFields)
		br.Maintenance = pick(br.Maintenance, maintenanceFields)
		out[p.name] = br
	}
	return out, nil
}

func pick(m map[string]json.RawMessage, keys []string) map[string]json.RawMessage {
	if m == nil {
		return nil
	}
	out := make(map[string]json.RawMessage, len(keys))
	for _, k := range keys {
		if v, ok := m[k]; ok {
			out[k] = v
		}
	}
	return out
}

// backgroundWork lists the maintenance passes (scrub, reconcile,
// compaction) that ran between two brackets, per process.
func backgroundWork(before, after map[string]bracket) []string {
	var out []string
	for name, a := range after {
		for _, key := range []string{"scrub_runs", "reconcile_runs", "compact_runs"} {
			var x, y int
			_ = json.Unmarshal(before[name].Maintenance[key], &x) // absent = 0
			_ = json.Unmarshal(a.Maintenance[key], &y)
			if y > x {
				out = append(out, fmt.Sprintf("%s: %d %s", name, y-x, strings.TrimSuffix(key, "_runs")))
			}
		}
	}
	sort.Strings(out)
	return out
}

// keepSample chooses the answers the oracle checks: a seeded one in
// keepEvery per connection.
func keepSample(seed int64) func(conn, i int) bool {
	return func(conn, i int) bool {
		h := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(conn)<<32 ^ uint64(i)
		h ^= h >> 31
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
		return h%keepEvery == 0
	}
}

// removeAll deletes a run directory, ignoring a missing one.
func removeAll(dir string) { _ = os.RemoveAll(dir) }
