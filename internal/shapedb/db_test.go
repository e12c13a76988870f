package shapedb

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/rtree"
)

// fixedFeatures builds a valid feature set with deterministic values.
func fixedFeatures(opts features.Options, base float64) features.Set {
	set := features.Set{}
	for _, k := range features.CoreKinds {
		v := make(features.Vector, opts.Dim(k))
		for i := range v {
			v[i] = base + float64(i)
		}
		set[k] = v
	}
	return set
}

func testRecord(t *testing.T, db *DB, name string, group int, base float64) int64 {
	t.Helper()
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1+base, 1, 1))
	id, err := db.Insert(name, group, mesh, fixedFeatures(db.Options(), base))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestInsertGetDelete(t *testing.T) {
	db, err := Open("", features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	id := testRecord(t, db, "widget", 3, 1)
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
	rec, ok := db.Get(id)
	if !ok {
		t.Fatal("record not found")
	}
	if rec.Name != "widget" || rec.Group != 3 {
		t.Errorf("record = %+v", rec)
	}
	if db.GroupOf(id) != 3 {
		t.Errorf("GroupOf = %d", db.GroupOf(id))
	}
	ok, err = db.Delete(id)
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if db.Len() != 0 {
		t.Errorf("Len after delete = %d", db.Len())
	}
	if _, ok := db.Get(id); ok {
		t.Error("deleted record still readable")
	}
	ok, err = db.Delete(id)
	if err != nil || ok {
		t.Errorf("double delete = %v, %v", ok, err)
	}
}

func TestInsertValidation(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	if _, err := db.Insert("x", 0, nil, fixedFeatures(db.Options(), 0)); err == nil {
		t.Error("nil mesh accepted")
	}
	if _, err := db.Insert("x", 0, mesh, features.Set{}); err == nil {
		t.Error("empty features accepted")
	}
	bad := features.Set{features.PrincipalMoments: features.Vector{1}}
	if _, err := db.Insert("x", 0, mesh, bad); err == nil {
		t.Error("wrong-dimension feature accepted")
	}
}

func TestInsertCopiesInputs(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	set := fixedFeatures(db.Options(), 2)
	id, err := db.Insert("w", 0, mesh, set)
	if err != nil {
		t.Fatal(err)
	}
	mesh.Vertices[0] = geom.V(99, 99, 99)
	set[features.PrincipalMoments][0] = 99
	rec, _ := db.Get(id)
	if rec.Mesh.Vertices[0] == geom.V(99, 99, 99) {
		t.Error("DB shares mesh storage with caller")
	}
	if rec.Features[features.PrincipalMoments][0] == 99 {
		t.Error("DB shares feature storage with caller")
	}
}

func TestKNNAndRadius(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	ids := make([]int64, 5)
	for i := range ids {
		ids[i] = testRecord(t, db, "s", 0, float64(i)*10)
	}
	dim := db.Options().Dim(features.PrincipalMoments)
	q := make(features.Vector, dim)
	for i := range q {
		q[i] = 21 + float64(i) // nearest to base=20 record
	}
	nn, err := db.KNN(features.PrincipalMoments, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 2 || nn[0].ID != ids[2] {
		t.Errorf("KNN = %+v, want nearest %d", nn, ids[2])
	}
	// Only the nearest record lies within radius 5 of the query.
	if nn[0].Dist > 5 || nn[1].Dist <= 5 {
		t.Errorf("KNN distances = %v, %v; want only the first within 5", nn[0].Dist, nn[1].Dist)
	}
	if _, err := db.KNN(features.Eigenvalues, q, 1); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := db.KNN(features.ShapeDistribution, make(features.Vector, db.Options().Dim(features.ShapeDistribution)), 1); err == nil {
		t.Error("missing index accepted")
	}
}

func TestDMax(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	if d := db.DMax(features.PrincipalMoments); d != 1e-12 {
		t.Errorf("empty DMax = %v", d)
	}
	testRecord(t, db, "a", 0, 0)
	if d := db.DMax(features.PrincipalMoments); d != 1e-12 {
		t.Errorf("single-point DMax = %v", d)
	}
	testRecord(t, db, "b", 0, 10)
	d := db.DMax(features.PrincipalMoments)
	// Two points differing by 10 in each of 3 dims: diag = 10√3.
	want := 10 * 1.7320508
	if d < want-0.01 || d > want+0.01 {
		t.Errorf("DMax = %v, want ≈%v", d, want)
	}
}

func TestGroupQueries(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	a := testRecord(t, db, "a", 1, 0)
	b := testRecord(t, db, "b", 1, 1)
	c := testRecord(t, db, "c", 2, 2)
	members := db.GroupMembers(1)
	if len(members) != 2 || members[0] != a || members[1] != b {
		t.Errorf("GroupMembers(1) = %v", members)
	}
	if got := db.GroupMembers(9); got != nil {
		t.Errorf("GroupMembers(9) = %v", got)
	}
	if db.GroupOf(c) != 2 || db.GroupOf(999) != 0 {
		t.Error("GroupOf wrong")
	}
	ids := db.IDs()
	if len(ids) != 3 || ids[0] != a || ids[2] != c {
		t.Errorf("IDs = %v", ids)
	}
	count := 0
	prev := int64(0)
	db.ForEach(func(r *Record) {
		if r.ID <= prev {
			t.Error("ForEach not in ascending ID order")
		}
		prev = r.ID
		count++
	})
	if count != 3 {
		t.Errorf("ForEach visited %d", count)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := testRecord(t, db, "alpha", 1, 0)
	b := testRecord(t, db, "beta", 2, 5)
	c := testRecord(t, db, "gamma", 2, 9)
	if _, err := db.Delete(b); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", re.Len())
	}
	rec, ok := re.Get(a)
	if !ok || rec.Name != "alpha" || rec.Group != 1 {
		t.Errorf("alpha = %+v, ok=%v", rec, ok)
	}
	if _, ok := re.Get(b); ok {
		t.Error("deleted record resurrected")
	}
	// Index rebuilt: query works.
	dim := re.Options().Dim(features.PrincipalMoments)
	q := make(features.Vector, dim)
	for i := range q {
		q[i] = 9 + float64(i)
	}
	nn, err := re.KNN(features.PrincipalMoments, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 1 || nn[0].ID != c {
		t.Errorf("reopened KNN = %+v, want %d", nn, c)
	}
	// New inserts get fresh IDs beyond the replayed maximum.
	d := testRecord(t, re, "delta", 0, 3)
	if d <= c {
		t.Errorf("new ID %d not beyond %d", d, c)
	}
	// Mesh geometry survived.
	if len(rec.Mesh.Faces) != 12 {
		t.Errorf("mesh faces = %d", len(rec.Mesh.Faces))
	}
}

func TestCrashRecoveryTruncatedJournal(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	testRecord(t, db, "a", 1, 0)
	testRecord(t, db, "b", 2, 5)
	db.Close()

	// Simulate a crash mid-append: truncate the journal inside the last
	// frame.
	path := filepath.Join(dir, journalName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("recovered Len = %d, want 1 (torn tail dropped)", re.Len())
	}
	// The DB remains writable after recovery.
	testRecord(t, re, "c", 3, 7)
	if re.Len() != 2 {
		t.Errorf("post-recovery insert failed")
	}
}

func TestCrashRecoveryCorruptPayload(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	testRecord(t, db, "a", 1, 0)
	testRecord(t, db, "b", 2, 5)
	db.Close()

	// Flip a byte in the second frame's payload.
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Errorf("recovered Len = %d, want 1 (corrupt frame dropped)", re.Len())
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	keep := testRecord(t, db, "keep", 1, 0)
	for i := 0; i < 10; i++ {
		id := testRecord(t, db, "tmp", 0, float64(i))
		if _, err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, journalName)
	before, _ := os.Stat(path)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink journal: %d -> %d", before.Size(), after.Size())
	}
	// Still writable and correct after compaction.
	testRecord(t, db, "post", 0, 50)
	db.Close()
	re, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 2 {
		t.Errorf("post-compact Len = %d, want 2", re.Len())
	}
	if _, ok := re.Get(keep); !ok {
		t.Error("kept record lost in compaction")
	}
}

func TestCompactInMemoryNoop(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	if err := db.Compact(); err != nil {
		t.Errorf("in-memory compact: %v", err)
	}
}

func TestConcurrentReadsDuringWrites(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	for i := 0; i < 20; i++ {
		testRecord(t, db, "seed", 0, float64(i))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			testRecord(t, db, "w", 0, float64(100+i))
		}
	}()
	dim := db.Options().Dim(features.PrincipalMoments)
	q := make(features.Vector, dim)
	for i := 0; i < 200; i++ {
		if _, err := db.KNN(features.PrincipalMoments, q, 3); err != nil {
			t.Error(err)
			break
		}
		db.Len()
		db.DMax(features.PrincipalMoments)
	}
	<-done
	if db.Len() != 120 {
		t.Errorf("Len = %d, want 120", db.Len())
	}
}

// TestHasIndexAndStats pins the lazy index contract: a kind has an index
// only once KNN has run on it, IndexStats reports that tree without ever
// building one, and the next KNN after a write replaces it.
func TestHasIndexAndStats(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	k := features.PrincipalMoments
	q := fixedFeatures(db.Options(), 0)[k]
	if _, err := db.KNN(k, q, 1); err == nil {
		t.Error("KNN on an empty DB succeeded")
	}
	testRecord(t, db, "a", 0, 0)
	if acc, height, count := db.IndexStats(k); acc != 0 || height != 0 || count != 0 {
		t.Errorf("IndexStats before any KNN = %d, %d, %d; want no index", acc, height, count)
	}
	if _, err := db.KNN(k, q, 1); err != nil {
		t.Fatal(err)
	}
	acc, height, count := db.IndexStats(k)
	if acc == 0 || height != 1 || count != 1 {
		t.Errorf("stats = accesses %d height %d count %d", acc, height, count)
	}
	testRecord(t, db, "b", 0, 5)
	if _, _, count := db.IndexStats(k); count != 1 {
		t.Errorf("IndexStats rebuilt the index on its own: count %d", count)
	}
	if _, err := db.KNN(k, q, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, count := db.IndexStats(k); count != 2 {
		t.Errorf("count after insert + KNN = %d, want 2", count)
	}
	if _, _, c := db.IndexStats(features.ShapeDistribution); c != 0 {
		t.Errorf("missing index stats count = %d", c)
	}
}

// randomFeatures draws a core feature set with distinct random
// coordinates, so k-NN answers carry no distance ties.
func randomFeatures(opts features.Options, rng *rand.Rand) features.Set {
	set := features.Set{}
	for _, k := range features.CoreKinds {
		v := make(features.Vector, opts.Dim(k))
		for i := range v {
			v[i] = rng.Float64() * 100
		}
		set[k] = v
	}
	return set
}

// bruteKNN ranks every snapshot record carrying kind k by Euclidean
// distance to q, ties by id, and keeps the first n.
func bruteKNN(recs []*Record, k features.Kind, q features.Vector, n int) []rtree.Neighbor {
	var out []rtree.Neighbor
	for _, rec := range recs {
		if v, ok := rec.Features[k]; ok {
			out = append(out, rtree.Neighbor{ID: rec.ID, Dist: rtree.Dist(rtree.Point(q), rtree.Point(v))})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// checkKNN fails unless KNN answers exactly like a brute-force k-NN over
// the current snapshot, for every core kind.
func checkKNN(t *testing.T, db *DB, step string, q features.Set) {
	t.Helper()
	recs := db.Snapshot()
	for _, k := range features.CoreKinds {
		got, err := db.KNN(k, q[k], 10)
		if err != nil {
			t.Fatalf("%s: KNN(%v): %v", step, k, err)
		}
		if want := bruteKNN(recs, k, q[k], 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: KNN(%v) = %v\nbrute force  %v", step, k, got, want)
		}
	}
}

// TestKNNTracksWrites checks the lazily loaded R-tree follows every kind
// of record-set change: after an insert, a delete, a quarantine and a
// replica reset, KNN matches a brute-force k-NN over Snapshot().
func TestKNNTracksWrites(t *testing.T) {
	db, err := Open(t.TempDir(), features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(5))
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	insert := func() (int64, features.Set) {
		set := randomFeatures(db.Options(), rng)
		id, err := db.Insert("r", 0, mesh, set)
		if err != nil {
			t.Fatal(err)
		}
		return id, set
	}
	var ids []int64
	for i := 0; i < 200; i++ {
		id, _ := insert()
		ids = append(ids, id)
	}
	checkKNN(t, db, "initial", randomFeatures(db.Options(), rng))

	// Query at each changed record's own vectors: an insert must surface
	// at distance 0, a removed record must vanish.
	id, set := insert()
	checkKNN(t, db, "insert", set)
	if nn, _ := db.KNN(features.PrincipalMoments, set[features.PrincipalMoments], 1); nn[0].ID != id {
		t.Fatalf("inserted record %d not its own nearest neighbour: %v", id, nn)
	}
	if ok, err := db.Delete(id); !ok || err != nil {
		t.Fatalf("delete: %v, %v", ok, err)
	}
	checkKNN(t, db, "delete", set)
	victim, _ := db.Get(ids[7])
	if !db.Quarantine(victim.ID, ScrubBitRot, "test") {
		t.Fatal("quarantine refused a live record")
	}
	checkKNN(t, db, "quarantine", victim.Features)

	if err := db.ResetReplica(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.KNN(features.PrincipalMoments, set[features.PrincipalMoments], 1); err == nil {
		t.Fatal("KNN after a replica reset still answers from the old records")
	}
	for i := 0; i < 30; i++ {
		insert()
	}
	checkKNN(t, db, "reset", randomFeatures(db.Options(), rng))
}

// TestKNNConcurrentWriters runs KNN and IndexStats against concurrent
// inserts and deletes (run under -race), then checks the settled answer
// against brute force.
func TestKNNConcurrentWriters(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	for i := 0; i < 50; i++ {
		set := randomFeatures(db.Options(), rand.New(rand.NewSource(int64(i))))
		if _, err := db.Insert("seed", 0, mesh, set); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 150; i++ {
				id, err := db.Insert("w", 0, mesh, randomFeatures(db.Options(), rng))
				if err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					db.Delete(id)
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for i := 0; i < 100; i++ {
				q := randomFeatures(db.Options(), rng)[features.Eigenvalues]
				nn, err := db.KNN(features.Eigenvalues, q, 5)
				if err != nil || len(nn) != 5 {
					t.Errorf("KNN under writes: %v (%d rows)", err, len(nn))
					return
				}
				for j := 1; j < len(nn); j++ {
					if nn[j].Dist < nn[j-1].Dist {
						t.Errorf("KNN under writes out of order: %v", nn)
						return
					}
				}
				db.IndexStats(features.Eigenvalues)
			}
		}(r)
	}
	wg.Wait()
	checkKNN(t, db, "settled", randomFeatures(db.Options(), rand.New(rand.NewSource(9))))
}

func TestSnapshotPointInTime(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	a := testRecord(t, db, "a", 1, 0)
	b := testRecord(t, db, "b", 2, 5)
	snap := db.Snapshot()
	if len(snap) != 2 || snap[0].ID != a || snap[1].ID != b {
		t.Fatalf("Snapshot = %+v", snap)
	}
	// Mutations after the snapshot are not visible in it.
	if _, err := db.Delete(a); err != nil {
		t.Fatal(err)
	}
	testRecord(t, db, "c", 0, 9)
	if len(snap) != 2 || snap[0].ID != a || snap[0].Name != "a" {
		t.Error("snapshot changed under mutation")
	}
	// Snapshot consumers may call back into the DB without deadlocking.
	for _, rec := range db.Snapshot() {
		if _, ok := db.Get(rec.ID); !ok {
			t.Errorf("callback Get(%d) failed", rec.ID)
		}
	}
	if got := db.Snapshot(); len(got) != 2 {
		t.Errorf("fresh snapshot has %d records", len(got))
	}
}

func TestGetMany(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	a := testRecord(t, db, "a", 1, 0)
	b := testRecord(t, db, "b", 2, 5)
	got := db.GetMany([]int64{b, 999, a})
	if len(got) != 3 {
		t.Fatalf("GetMany returned %d records", len(got))
	}
	if got[0] == nil || got[0].ID != b || got[1] != nil || got[2] == nil || got[2].ID != a {
		t.Errorf("GetMany = %+v", got)
	}
	if out := db.GetMany(nil); len(out) != 0 {
		t.Errorf("GetMany(nil) = %v", out)
	}
}

// TestConcurrentSnapshotMixedOps exercises Insert, Delete, Get, GetMany,
// Snapshot, and KNN from concurrent goroutines; run under -race it is the
// store's concurrency smoke test for the parallel execution layer.
func TestConcurrentSnapshotMixedOps(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	var seed []int64
	for i := 0; i < 30; i++ {
		seed = append(seed, testRecord(t, db, "seed", i%3, float64(i)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				testRecord(t, db, "w", 0, float64(1000+w*100+i))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, id := range seed[:10] {
			if _, err := db.Delete(id); err != nil {
				t.Error(err)
			}
		}
	}()
	dim := db.Options().Dim(features.PrincipalMoments)
	q := make(features.Vector, dim)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if _, err := db.KNN(features.PrincipalMoments, q, 5); err != nil {
					t.Error(err)
					return
				}
				snap := db.Snapshot()
				prev := int64(0)
				for _, rec := range snap {
					if rec.ID <= prev {
						t.Error("snapshot not in ascending ID order")
						return
					}
					prev = rec.ID
				}
				db.GetMany(seed)
			}
		}()
	}
	wg.Wait()
	if want := 30 + 4*40 - 10; db.Len() != want {
		t.Errorf("Len = %d, want %d", db.Len(), want)
	}
}
