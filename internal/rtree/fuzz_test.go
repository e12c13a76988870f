package rtree

import (
	"math"
	"math/rand"
	"testing"
)

// referenceStore is a brute-force oracle mirroring the tree's contents.
type referenceStore struct {
	points map[int64]Point
}

func (r *referenceStore) knn(q Point, k int) []Neighbor {
	out := make([]Neighbor, 0, len(r.points))
	for id, p := range r.points {
		out = append(out, Neighbor{ID: id, Dist: Dist(p, q)})
	}
	// insertion sort is fine at these sizes
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].Dist < out[j-1].Dist ||
			(out[j].Dist == out[j-1].Dist && out[j].ID < out[j-1].ID)); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}

// TestFuzzInsertDeleteQuery interleaves random inserts, deletes, and
// queries against the oracle's point set. A static tree is never patched:
// every query step bulk-loads a fresh tree from the current set (as the
// shape database does when its records change) and checks it against the
// oracle and the structural invariants.
func TestFuzzInsertDeleteQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(220))
	const dim = 3
	ref := &referenceStore{points: map[int64]Point{}}
	nextID := int64(1)
	randPoint := func() Point {
		p := make(Point, dim)
		for d := range p {
			p[d] = rng.Float64() * 50
		}
		return p
	}
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(ref.points) == 0: // insert
			ref.points[nextID] = randPoint()
			nextID++
		case op < 8: // delete a random existing id
			for id := range ref.points {
				delete(ref.points, id)
				break
			}
		default: // rebuild and k-NN check
			items := make([]BulkItem, 0, len(ref.points))
			for id, p := range ref.points {
				items = append(items, BulkItem{ID: id, Point: p})
			}
			tr, err := BulkLoad(dim, 6, items)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if tr.Len() != len(ref.points) {
				t.Fatalf("step %d: Len %d vs oracle %d", step, tr.Len(), len(ref.points))
			}
			q := randPoint()
			k := 1 + rng.Intn(8)
			got := tr.NearestNeighbors(k, q)
			want := ref.knn(q, k)
			if len(got) != len(want) {
				t.Fatalf("step %d: got %d results, want %d", step, len(got), len(want))
			}
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("step %d rank %d: dist %v vs %v", step, i, got[i].Dist, want[i].Dist)
				}
			}
		}
	}
}
