package main

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"
	"time"

	"threedess/internal/core"
	"threedess/internal/features"
)

// syntheticBench is a bench whose inputs come from the seed without
// feature extraction or data directories: enough to build every stream.
func syntheticBench(t *testing.T, seed int64) *bench {
	t.Helper()
	shapes, err := generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	sets := make([]features.Set, len(shapes))
	for i := range sets {
		sets[i] = features.Set{}
		for _, k := range features.CoreKinds {
			v := make(features.Vector, features.DefaultOptions().Dim(k))
			for d := range v {
				v[d] = rng.Float64()
			}
			sets[i][k] = v
		}
	}
	return &bench{
		cfg: config{seed: seed}, shapes: shapes, sets: sets, n: 1000,
		thresh: thresholds{features.PrincipalMoments: {0.9}, features.Eigenvalues: {0.8}},
	}
}

// streamDigest hashes the first n requests of every connection.
func streamDigest(t *testing.T, w *workload, seed int64, n int) [32]byte {
	t.Helper()
	h := sha256.New()
	for ci, s := range w.streams(syntheticBench(t, seed)) {
		for i := range n {
			r := s.next()
			h.Write([]byte{byte(ci)})
			h.Write([]byte(r.Op + " " + r.Method + " " + r.Path + "\n"))
			h.Write(r.Body)
			if i == 0 && len(r.Body) == 0 {
				t.Fatalf("%s: empty request body", w.name)
			}
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestRequestStreamIsByteIdenticalForASeed(t *testing.T) {
	for _, w := range workloads {
		n := 200
		if w == ingestUpload {
			n = 40 // every batch carries full meshes
		}
		a, b := streamDigest(t, w, 7, n), streamDigest(t, w, 7, n)
		if a != b {
			t.Errorf("%s: same seed gave different request streams", w.name)
		}
		if c := streamDigest(t, w, 8, n); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.name)
		}
	}
}

func TestSearchMixMatchesShares(t *testing.T) {
	b := syntheticBench(t, 3)
	counts := map[string]int{}
	const n = 20000
	s := searchScan.streams(b)[0]
	for range n {
		counts[s.next().Op]++
	}
	want := map[string]float64{opWeighted: 0.40, opUnweighted: 0.25, opThreshold: 0.20, opByID: 0.15}
	for op, p := range want {
		if got := float64(counts[op]) / n; got < p-0.02 || got > p+0.02 {
			t.Errorf("%s share %.3f, want %.2f", op, got, p)
		}
	}
}

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	// root [0,100] has children A [10,40] and B [30,60], which overlap, and
	// C [90,120], which overruns the root. A has a child [15,20].
	spans := []span{
		{ID: 1, Req: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Req: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Req: 1, Name: "a.child", Start: 15, End: 20},
	}
	want := map[int64]time.Duration{
		1: 100 - 50 - 10, // children cover [10,60] and [90,100]
		2: 30 - 5,
		3: 30,
		4: 30,
		5: 5,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
	if s := byName(spans, true)["root"]; len(s) != 1 || s[0] != 40 {
		t.Errorf("byName self of root = %v, want [40]", s)
	}
}

func TestTracerRecordsNestingAndNilIsSilent(t *testing.T) {
	tr := newTracer()
	tr.timed("op", nil, func(root *openSpan) {
		tr.timed("child", root, func(*openSpan) {})
	})
	sp := tr.snapshot()
	if len(sp) != 2 {
		t.Fatalf("%d spans, want 2", len(sp))
	}
	child, root := sp[0], sp[1]
	if child.Parent != root.ID || child.Req != root.Req || root.Parent != 0 {
		t.Errorf("bad nesting: root %+v child %+v", root, child)
	}
	if child.Start < root.Start || child.End > root.End {
		t.Errorf("child %+v outside root %+v", child, root)
	}
	var off *tracer
	if d := off.timed("op", nil, func(root *openSpan) { off.start("x", root).end() }); d <= 0 {
		t.Errorf("untraced timing %v, want > 0", d)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	mk := func(n int) sample {
		s := make(sample, n)
		for i := range s {
			s[i] = time.Duration(n - i) // reversed: percentile must sort
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		want time.Duration
		ok   bool
	}{
		{1, 50, 1, true},
		{100, 50, 50, true},
		{100, 90, 90, true},   // 10 beyond
		{99, 90, 0, false},    // 9 beyond
		{999, 99, 0, false},   // 9 beyond
		{1000, 99, 990, true}, // 10 beyond
		{199, 95, 0, false},
		{200, 95, 190, true},
		{0, 50, 0, false},
	}
	for _, c := range cases {
		got, err := mk(c.n).percentile(c.p)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("p%g of %d: got %v, err %v; want %v ok=%v", c.p, c.n, got, err, c.want, c.ok)
		}
	}
}

func TestCompareTiesAsSets(t *testing.T) {
	want := []core.Result{{ID: 1, Distance: 1}, {ID: 2, Distance: 2}, {ID: 3, Distance: 2}, {ID: 4, Distance: 2}, {ID: 5, Distance: 3}}
	row := func(id int64, d float64) wireResult { return wireResult{ID: id, Distance: d} }
	// k=3: the tie group at distance 2 is cut; any two of {2,3,4} are right.
	if diff := compare([]wireResult{row(1, 1), row(4, 2), row(2, 2)}, want, 3, false, true); diff != "" {
		t.Errorf("valid tie permutation refused: %s", diff)
	}
	if diff := compare([]wireResult{row(1, 1), row(4, 2), row(2, 2)}, want, 3, false, false); diff == "" {
		t.Error("strict comparison accepted a reordered tie")
	}
	if diff := compare([]wireResult{row(2, 2), row(3, 2), row(4, 2)}, want, 3, false, true); diff == "" {
		t.Error("answer missing the nearest row accepted")
	}
	if diff := compare([]wireResult{row(1, 1), row(2, 2), row(5, 2)}, want, 3, false, true); diff == "" {
		t.Error("row at a wrong distance accepted")
	}
}

func TestKeepSampleIsSeededAndSparse(t *testing.T) {
	a, b := keepSample(1), keepSample(1)
	kept := 0
	for i := range 16000 {
		if a(0, i) != b(0, i) {
			t.Fatal("same seed kept different answers")
		}
		if a(0, i) {
			kept++
		}
	}
	if kept < 180 || kept > 320 {
		t.Errorf("kept %d of 16000, want about 250", kept)
	}
	same := true
	for i := range 1000 {
		same = same && keepSample(2)(0, i) == a(0, i)
	}
	if same {
		t.Error("seeds 1 and 2 keep the same answers")
	}
}

func TestCheckRefusesDegradedAndShortAnswers(t *testing.T) {
	req := searchRequest(opWeighted, searchBody{QueryVector: []float64{1, 2, 3}, K: 2, Weights: []float64{1, 1, 1}}, features.PrincipalMoments)
	ok := response{status: 200, header: map[string][]string{}, body: []byte(`[{"id":1,"distance":0.5},{"id":2,"distance":0.7}]`)}
	if fail, _, _ := check(req, ok); fail != "" {
		t.Fatalf("good answer refused: %s", fail)
	}
	deg := ok
	deg.header = map[string][]string{"X-Degraded": {"coarse"}}
	short := ok
	short.body = []byte(`[{"id":1,"distance":0.5}]`)
	unordered := ok
	unordered.body = []byte(`[{"id":1,"distance":0.9},{"id":2,"distance":0.7}]`)
	shed := ok
	shed.status = 429
	for name, r := range map[string]response{"degraded": deg, "short": short, "unordered": unordered, "shed": shed} {
		if fail, _, _ := check(req, r); fail == "" {
			t.Errorf("%s answer accepted", name)
		}
	}
	if !bytes.Contains(req.Body, []byte(`"feature":"principal-moments"`)) {
		t.Errorf("request body %s lacks the wire feature name", req.Body)
	}
}

func TestSlicedMedianIgnoresOneSlowSlice(t *testing.T) {
	// Ten seconds of one event every 100 ms, each taking 1 ms, except the
	// slice [4s, 6s) where every event takes 50 ms.
	var evs []event
	for i := range 100 {
		at := time.Duration(i)*100*time.Millisecond + time.Millisecond
		lat := time.Millisecond
		if at >= 4*time.Second && at < 6*time.Second {
			lat = 50 * time.Millisecond
		}
		evs = append(evs, event{at: at, read: true, lat: lat})
	}
	maxLat := func(sl []event, _ time.Duration) (float64, bool) {
		var m time.Duration
		for _, e := range sl {
			m = max(m, e.lat)
		}
		return ms(m), len(sl) > 0
	}
	if v, ok := slicedMedian(evs, 10*time.Second, 5, maxLat); !ok || v != 1 {
		t.Errorf("sliced median %v (ok=%v), want 1 ms", v, ok)
	}
	if v, _ := slicedMedian(evs, 10*time.Second, 1, maxLat); v != 50 {
		t.Errorf("one slice: %v, want the whole window's 50 ms", v)
	}
	rate := func(sl []event, d time.Duration) (float64, bool) { return float64(len(sl)) / d.Seconds(), true }
	if v, _ := slicedMedian(evs, 10*time.Second, 5, rate); v != 10 {
		t.Errorf("rate %v, want 10/s", v)
	}
	if _, ok := slicedMedian(evs[:10], 10*time.Second, 5, maxLat); ok {
		t.Error("empty slices accepted")
	}
}
