package rtree

import (
	"math"
	"testing"
)

// A non-finite coordinate admitted into the tree would poison every MBR on
// its path to the root (NaN comparisons are always false, so packing order
// and MinDist computations silently misorder), corrupting results for keys
// that were perfectly valid. These tests pin the reject-at-the-door
// behaviour.

func TestInsertRejectsNonFinite(t *testing.T) {
	var good []BulkItem
	for i := int64(0); i < 8; i++ {
		f := float64(i)
		good = append(good, BulkItem{ID: i, Point: Point{f, f * 2, f * 3}})
	}
	bads := []Point{
		{math.NaN(), 0, 0},
		{0, math.NaN(), 0},
		{0, 0, math.NaN()},
		{math.Inf(1), 0, 0},
		{0, math.Inf(-1), 0},
		{1, 2}, // wrong dimension
	}
	for _, p := range bads {
		// The bad point is refused wherever it sits among good ones.
		for pos := 0; pos <= len(good); pos++ {
			items := append(append(append([]BulkItem(nil), good[:pos]...), BulkItem{ID: 100, Point: p}), good[pos:]...)
			if tr, err := BulkLoad(3, 4, items); err == nil {
				t.Errorf("BulkLoad accepted bad point %v at position %d (Len %d)", p, pos, tr.Len())
			}
		}
	}

	// The good points alone still load and answer correctly.
	tr, err := BulkLoad(3, 4, good)
	if err != nil {
		t.Fatal(err)
	}
	nn := tr.NearestNeighbors(1, Point{0, 0, 0})
	if len(nn) != 1 || nn[0].ID != 0 {
		t.Fatalf("NearestNeighbors = %v, want id 0", nn)
	}
}

func TestQueriesRejectNonFinitePoints(t *testing.T) {
	tr, err := BulkLoad(2, 4, []BulkItem{{ID: 1, Point: Point{1, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	bad := Point{math.NaN(), 0}
	if nn := tr.NearestNeighbors(1, bad); nn != nil {
		t.Errorf("NearestNeighbors on a NaN query returned %v, want nil", nn)
	}
	if nn := tr.WithinRadius(bad, 1); nn != nil {
		t.Errorf("WithinRadius on a NaN query returned %v, want nil", nn)
	}
}
