package colstore

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/shapedb"
)

const testKind = features.PrincipalMoments

func openDB(t *testing.T, dir string) *shapedb.DB {
	t.Helper()
	db, err := shapedb.Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func insertVec(t *testing.T, db *shapedb.DB, v features.Vector) int64 {
	t.Helper()
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	id, err := db.Insert("v", 0, mesh, features.Set{testKind: v})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func randVec(rng *rand.Rand, dim int, spread float64) features.Vector {
	v := make(features.Vector, dim)
	for d := range v {
		v[d] = (rng.Float64() - 0.5) * spread
	}
	return v
}

// TestCoarseBoundNeverExceedsTrueDistance is the safety property the whole
// two-stage design rests on: for every row, query, and weighting — across
// spread-out, clustered, constant-dimension, and out-of-grid appended
// data — the quantized lower bound must not exceed the exact squared
// distance, or a true top-k member could be pruned.
func TestCoarseBoundNeverExceedsTrueDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := openDB(t, "")
	dim := db.Options().Dim(testKind)
	spreads := []float64{1e-9, 1, 1000, 1e9}
	for i := 0; i < 400; i++ {
		v := randVec(rng, dim, spreads[i%len(spreads)])
		if i%17 == 0 {
			v[rng.Intn(dim)] = 42 // recurring exact value → near-constant dim
		}
		insertVec(t, db, v)
	}
	mgr := NewManager(db)
	st, err := mgr.Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	// Appends quantize into the existing grid; out-of-range values land in
	// the half-infinite edge cells and must stay safe.
	for i := 0; i < 50; i++ {
		insertVec(t, db, randVec(rng, dim, 1e12))
	}
	if st, err = mgr.Store(testKind); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		q := randVec(rng, dim, spreads[trial%len(spreads)]*2)
		w := make([]float64, dim)
		for d := range w {
			w[d] = rng.Float64() * 5
		}
		if trial%3 == 0 {
			w = nil
		}
		for row := 0; row < st.Len(); row++ {
			lb2 := st.CoarseLowerBound2(row, q, w)
			d2 := st.DistSq(row, q, w)
			if lb2 > d2 {
				t.Fatalf("trial %d row %d: lower bound %g exceeds true dist² %g", trial, row, lb2, d2)
			}
		}
	}
}

// bruteTopK ranks every row exactly with the store's own kernel, by
// (distance, id) like the engine's exhaustive scan: rows whose squared
// distances differ but round to the same distance tie.
func bruteTopK(st *Store, q, w []float64, k int) []Candidate {
	all := make([]Candidate, st.Len())
	for i := range all {
		all[i] = Candidate{Rec: st.recs[i], Dist: math.Sqrt(st.DistSq(i, q, w))}
	}
	for i := 1; i < len(all); i++ { // insertion sort keeps the test dependency-free
		for j := i; j > 0 && (all[j].Dist < all[j-1].Dist ||
			(all[j].Dist == all[j-1].Dist && all[j].Rec.ID < all[j-1].Rec.ID)); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// TestSearchTopKRanksByRoundedDistance covers rows whose squared
// distances differ in the last bit but round to the same distance: on a
// 0.2-step grid, 0.6−0.4 and 0.4−0.2 differ by an ulp, so such near-ties
// are everywhere. Top-k must rank and cut them by (distance, id), as the
// exhaustive scan does, not by squared distance — both when the R-tree
// covers every row and answers alone, and after appends, when the
// quantized scan runs.
func TestSearchTopKRanksByRoundedDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	db := openDB(t, "")
	dim := db.Options().Dim(testKind)
	grid := func() float64 { return float64(rng.Intn(6)) / 5 }
	var vecs []features.Vector
	insertGrid := func(n int) {
		for i := 0; i < n; i++ {
			v := make(features.Vector, dim)
			for d := range v {
				v[d] = grid()
			}
			vecs = append(vecs, v)
			insertVec(t, db, v)
		}
	}
	uniform := make([]float64, dim)
	for d := range uniform {
		uniform[d] = 1
	}
	mgr := NewManager(db)
	insertGrid(2000)
	for _, appended := range []int{0, 300} {
		insertGrid(appended)
		st, err := mgr.Store(testKind)
		if err != nil {
			t.Fatal(err)
		}
		if treeOnly := st.treeRows == st.Len(); treeOnly != (appended == 0) {
			t.Fatalf("appended %d: tree covers %d of %d rows", appended, st.treeRows, st.Len())
		}
		for trial := 0; trial < 40; trial++ {
			q := vecs[rng.Intn(len(vecs))]
			k := 1 + rng.Intn(400)
			for _, workers := range []int{1, 4} {
				got, _, err := st.SearchTopK(context.Background(), q, uniform, k, workers)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteTopK(st, q, uniform, k)
				if len(got) != len(want) {
					t.Fatalf("appended %d trial %d: %d results, want %d", appended, trial, len(got), len(want))
				}
				for i := range want {
					if got[i].Rec.ID != want[i].Rec.ID || got[i].Dist != want[i].Dist {
						t.Fatalf("appended %d trial %d workers=%d k=%d: result %d = (%d, %v), want (%d, %v)",
							appended, trial, workers, k, i, got[i].Rec.ID, got[i].Dist, want[i].Rec.ID, want[i].Dist)
					}
				}
			}
		}
	}
}

// TestSearchTopKSurvivesRefusedTreeQuery passes weights the R-tree
// refuses; the store must fall back to its scan instead of indexing an
// empty neighbour list, and a NaN heap key (the square root of a negative
// weighted sum) must not stall the pruning bound.
func TestSearchTopKSurvivesRefusedTreeQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	db := openDB(t, "")
	dim := db.Options().Dim(testKind)
	for i := 0; i < 50; i++ {
		insertVec(t, db, randVec(rng, dim, 5))
	}
	st, err := NewManager(db).Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, dim)
	w[0] = -1
	q := randVec(rng, dim, 5)
	if got, _, err := st.SearchTopK(context.Background(), q, w, 3, 1); err != nil || len(got) != 3 {
		t.Fatalf("SearchTopK with a negative weight: %d rows, err %v", len(got), err)
	}
	if got, _, err := st.SearchCoarseTopK(context.Background(), q, w, 3, 1); err != nil || len(got) != 3 {
		t.Fatalf("SearchCoarseTopK with a negative weight: %d rows, err %v", len(got), err)
	}
}

func TestSearchTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	db := openDB(t, "")
	dim := db.Options().Dim(testKind)
	for i := 0; i < 500; i++ {
		v := make(features.Vector, dim)
		for d := range v {
			v[d] = float64(rng.Intn(6)) // coarse grid → constant ties
		}
		insertVec(t, db, v)
	}
	st, err := NewManager(db).Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		q := randVec(rng, dim, 12)
		w := make([]float64, dim)
		for d := range w {
			w[d] = rng.Float64() * 3
		}
		k := 1 + rng.Intn(30)
		for _, workers := range []int{1, 4} {
			got, stats, err := st.SearchTopK(context.Background(), q, w, k, workers)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteTopK(st, q, w, k)
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
			}
			for i := range got {
				if got[i].Rec.ID != want[i].Rec.ID || got[i].Dist != want[i].Dist {
					t.Fatalf("trial %d workers=%d: result %d = (%d, %v), want (%d, %v)",
						trial, workers, i, got[i].Rec.ID, got[i].Dist, want[i].Rec.ID, want[i].Dist)
				}
			}
			if stats.ExactEvals > stats.Rows {
				t.Fatalf("trial %d: %d exact evals over %d rows", trial, stats.ExactEvals, stats.Rows)
			}
		}
	}
}

func TestSearchRadiusMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := openDB(t, "")
	dim := db.Options().Dim(testKind)
	for i := 0; i < 300; i++ {
		insertVec(t, db, randVec(rng, dim, 10))
	}
	st, err := NewManager(db).Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	q := randVec(rng, dim, 10)
	w := []float64{2, 0.5, 1}[:dim]
	for _, radius := range []float64{0, 0.5, 3, 20, math.Inf(1)} {
		got, _, err := st.SearchRadius(context.Background(), q, w, radius, 2)
		if err != nil {
			t.Fatal(err)
		}
		var want []Candidate
		for _, c := range bruteTopK(st, q, w, st.Len()) {
			if c.Dist <= radius {
				want = append(want, c)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("radius %g: %d results, want %d", radius, len(got), len(want))
		}
		for i := range got {
			if got[i].Rec.ID != want[i].Rec.ID || got[i].Dist != want[i].Dist {
				t.Fatalf("radius %g: result %d mismatch", radius, i)
			}
		}
	}
}

// TestAppendFastPathSharesTree pins the incremental maintenance contract:
// a small append publishes a new store that reuses the previous grid and
// seeding tree (which then covers a prefix), while a large append or a
// delete forces a full rebuild.
func TestAppendFastPathSharesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	db := openDB(t, "")
	dim := db.Options().Dim(testKind)
	for i := 0; i < 100; i++ {
		insertVec(t, db, randVec(rng, dim, 5))
	}
	mgr := NewManager(db)
	s1, err := mgr.Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	var lastID int64
	for i := 0; i < 20; i++ {
		lastID = insertVec(t, db, randVec(rng, dim, 5))
	}
	s2, err := mgr.Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	if s2 == s1 {
		t.Fatal("store not republished after insert")
	}
	if s2.tree != s1.tree || s2.treeRows != s1.Len() {
		t.Errorf("small append rebuilt the tree (treeRows %d, prev len %d)", s2.treeRows, s1.Len())
	}
	if s2.Len() != 120 {
		t.Errorf("appended store has %d rows, want 120", s2.Len())
	}
	if _, err := db.Delete(lastID); err != nil {
		t.Fatal(err)
	}
	s3, err := mgr.Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	if s3.tree == s2.tree {
		t.Error("delete did not force a full rebuild")
	}
	if s3.treeRows != s3.Len() || s3.Len() != 119 {
		t.Errorf("rebuilt store: treeRows %d, len %d, want both 119", s3.treeRows, s3.Len())
	}
	if got := db.Version(); s3.Version() != got {
		t.Errorf("store version %d, db version %d", s3.Version(), got)
	}
}

// trippingCtx turns cancelled after its first Err call, so cancellation
// lands inside the block scan.
type trippingCtx struct {
	context.Context
	calls atomic.Int32
}

func (c *trippingCtx) Err() error {
	if c.calls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

func TestSearchHonorsCancellationBetweenBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	db := openDB(t, "")
	dim := db.Options().Dim(testKind)
	for i := 0; i < 3*blockRows; i++ {
		insertVec(t, db, randVec(rng, dim, 5))
	}
	st, err := NewManager(db).Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	q := randVec(rng, dim, 5)
	if _, _, err := st.SearchTopK(&trippingCtx{Context: context.Background()}, q, nil, 5, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchTopK mid-scan cancel: err = %v", err)
	}
	if _, _, err := st.SearchRadius(&trippingCtx{Context: context.Background()}, q, nil, 1, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchRadius mid-scan cancel: err = %v", err)
	}
}

// TestManagerStaysCoherentUnderMutation drives a durable DB through
// inserts, deletes, quarantines, compaction, and a replica reset while a
// Watch loop and concurrent readers run — the -race gate for the
// CommitNotify-driven maintenance path. At the end the store must agree
// exactly with the database.
func TestManagerStaysCoherentUnderMutation(t *testing.T) {
	db := openDB(t, t.TempDir())
	dim := db.Options().Dim(testKind)
	rng := rand.New(rand.NewSource(26))
	var ids []int64
	for i := 0; i < 300; i++ {
		ids = append(ids, insertVec(t, db, randVec(rng, dim, 10)))
	}
	mgr := NewManager(db)
	if _, err := mgr.Store(testKind); err != nil { // register the kind for Watch
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mgr.Watch(ctx)
	}()
	// Concurrent readers: every published store must be internally
	// consistent regardless of what the mutator is doing.
	readErr := make(chan error, 1)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for ctx.Err() == nil {
				st, err := mgr.Store(testKind)
				if err != nil {
					select {
					case readErr <- err:
					default:
					}
					return
				}
				q := randVec(rng, dim, 10)
				res, _, err := st.SearchTopK(context.Background(), q, nil, 5, 2)
				if err != nil {
					select {
					case readErr <- err:
					default:
					}
					return
				}
				for i := 1; i < len(res); i++ {
					if res[i].Dist < res[i-1].Dist {
						select {
						case readErr <- errors.New("unsorted results"):
						default:
						}
						return
					}
				}
			}
		}(int64(100 + r))
	}

	// Mutator: the sequence exercises append, rebuild, quarantine (a
	// delete under the hood), compaction, and replica reset.
	for i := 0; i < 60; i++ {
		ids = append(ids, insertVec(t, db, randVec(rng, dim, 10)))
	}
	for i := 0; i < 40; i++ {
		if _, err := db.Delete(ids[rng.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
	}
	db.Quarantine(ids[0], shapedb.ScrubBitRot, "test")
	db.Quarantine(ids[1], shapedb.ScrubBitRot, "test")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		insertVec(t, db, randVec(rng, dim, 10))
	}
	if err := db.ResetReplica(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		insertVec(t, db, randVec(rng, dim, 10))
	}

	// Give Watch a moment to chase the tail, then verify convergence via
	// the query path (which must refresh regardless of Watch timing).
	time.Sleep(20 * time.Millisecond)
	cancel()
	wg.Wait()
	select {
	case err := <-readErr:
		t.Fatalf("concurrent reader: %v", err)
	default:
	}

	st, err := mgr.Store(testKind)
	if err != nil {
		t.Fatal(err)
	}
	recs, ver := db.SnapshotVersion()
	var want []int64
	for _, rec := range recs {
		if _, ok := rec.Features[testKind]; ok {
			want = append(want, rec.ID)
		}
	}
	got := st.IDs()
	if len(got) != len(want) {
		t.Fatalf("store has %d rows, db has %d matching records", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: store id %d, db id %d", i, got[i], want[i])
		}
	}
	if st.Version() != ver {
		t.Errorf("store version %d, db version %d", st.Version(), ver)
	}
}
