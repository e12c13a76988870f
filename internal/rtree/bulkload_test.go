package rtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBulkLoadMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	pts := randomPoints(2000, 4, rng)
	items := make([]BulkItem, len(pts))
	for i, p := range pts {
		items[i] = BulkItem{ID: int64(i), Point: p}
	}
	tr, err := BulkLoad(4, 16, items)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(pts) {
		t.Fatalf("Len = %d", tr.Len())
	}
	for trial := 0; trial < 20; trial++ {
		q := randomPoints(1, 4, rng)[0]
		want := linearKNN(pts, q, 10)
		got := tr.NearestNeighbors(10, q)
		for i := range want {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("trial %d rank %d: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr, err := BulkLoad(3, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if got := tr.NearestNeighbors(5, Point{0, 0, 0}); got != nil {
		t.Errorf("empty bulk tree k-NN = %v", got)
	}
}

func TestBulkLoadSmall(t *testing.T) {
	// Fewer items than one node.
	items := []BulkItem{
		{ID: 1, Point: Point{1, 1}},
		{ID: 2, Point: Point{2, 2}},
	}
	tr, err := BulkLoad(2, 8, items)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 {
		t.Errorf("height = %d, want 1", tr.Height())
	}
	got := tr.NearestNeighbors(1, Point{0, 0})
	if len(got) != 1 || got[0].ID != 1 {
		t.Errorf("NN = %v", got)
	}
}

func TestBulkLoadValidation(t *testing.T) {
	if _, err := BulkLoad(0, 8, nil); err == nil {
		t.Error("zero dimension accepted")
	}
	items := []BulkItem{{ID: 1, Point: Point{1}}}
	if _, err := BulkLoad(2, 8, items); err == nil {
		t.Error("wrong-dimension item accepted")
	}
	items = []BulkItem{{ID: 1, Point: Point{math.NaN(), 0}}}
	if _, err := BulkLoad(2, 8, items); err == nil {
		t.Error("NaN item accepted")
	}
}

// Property-based: for random point sets, 1-NN through the index equals the
// brute-force minimum.
func TestQuickNearestNeighborProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(200)
		pts := randomPoints(n, 3, r)
		tr := buildTree(t, pts, 3, 4+r.Intn(12))
		q := randomPoints(1, 3, r)[0]
		got := tr.NearestNeighbors(1, q)
		want := linearKNN(pts, q, 1)
		return len(got) == 1 && math.Abs(got[0].Dist-want[0].Dist) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}
