package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func weightedDist(a, b Point, w []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		sum += wi * d * d
	}
	return math.Sqrt(sum)
}

// loadMap bulk-loads a tree over an id → point map.
func loadMap(t *testing.T, dim int, pts map[int64]Point) *Tree {
	t.Helper()
	items := make([]BulkItem, 0, len(pts))
	for id, p := range pts {
		items = append(items, BulkItem{ID: id, Point: p})
	}
	tr, err := BulkLoad(dim, 8, items)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// bruteWeightedKNN ranks the points by weighted distance with the same
// (dist, id) tie-break the tree uses.
func bruteWeightedKNN(pts map[int64]Point, q Point, w []float64, k int) []Neighbor {
	out := make([]Neighbor, 0, len(pts))
	for id, p := range pts {
		out = append(out, Neighbor{ID: id, Dist: weightedDist(q, p, w)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func TestNearestNeighborsWeightedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		dim := 2 + trial%4
		pts := make(map[int64]Point)
		n := 50 + rng.Intn(400)
		for i := 0; i < n; i++ {
			p := make(Point, dim)
			for d := range p {
				// Coarse grid so exact distance ties occur regularly.
				p[d] = float64(rng.Intn(12))
			}
			pts[int64(i+1)] = p
		}
		tr := loadMap(t, dim, pts)
		w := make([]float64, dim)
		for d := range w {
			w[d] = rng.Float64() * 3
		}
		if trial%5 == 0 {
			w[rng.Intn(dim)] = 0 // zero weights collapse a dimension
		}
		q := make(Point, dim)
		for d := range q {
			q[d] = rng.Float64() * 12
		}
		k := 1 + rng.Intn(n+5)
		got := tr.NearestNeighborsWeighted(k, q, w)
		want := bruteWeightedKNN(pts, q, w, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d neighbors, want %d", trial, len(got), len(want))
		}
		// Equal-distance entries may pop in either order (a tied entry can
		// surface before the node holding its twin expands), so assert the
		// distance sequence — which pins the exact k-NN set up to ties —
		// and that every reported (id, dist) pair is truthful and unique.
		seen := make(map[int64]bool)
		for i := range got {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("trial %d: neighbor %d dist = %v, want %v", trial, i, got[i].Dist, want[i].Dist)
			}
			if seen[got[i].ID] {
				t.Fatalf("trial %d: duplicate neighbor id %d", trial, got[i].ID)
			}
			seen[got[i].ID] = true
			if td := weightedDist(q, pts[got[i].ID], w); td != got[i].Dist {
				t.Fatalf("trial %d: neighbor %d reports dist %v, true dist %v", trial, i, got[i].Dist, td)
			}
		}
	}
}

func TestWithinRadiusWeightedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dim := 3
	pts := make(map[int64]Point)
	for i := 0; i < 300; i++ {
		p := make(Point, dim)
		for d := range p {
			p[d] = rng.Float64() * 10
		}
		pts[int64(i+1)] = p
	}
	tr := loadMap(t, dim, pts)
	w := []float64{2.5, 0.5, 1}
	q := Point{5, 5, 5}
	for _, radius := range []float64{0, 1, 3, 8, 100} {
		got := tr.WithinRadiusWeighted(q, radius, w)
		var want []Neighbor
		for _, nb := range bruteWeightedKNN(pts, q, w, len(pts)) {
			if nb.Dist <= radius {
				want = append(want, nb)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("radius %g: got %d, want %d", radius, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("radius %g: result %d = %+v, want %+v", radius, i, got[i], want[i])
			}
		}
	}
}

func TestWeightedQueriesRejectBadWeights(t *testing.T) {
	tr := loadMap(t, 3, map[int64]Point{1: {1, 2, 3}})
	q := Point{0, 0, 0}
	for _, w := range [][]float64{
		{1, 2},              // wrong dimension
		{1, -1, 1},          // negative
		{1, math.NaN(), 1},  // NaN
		{1, math.Inf(1), 1}, // +Inf
	} {
		if got := tr.NearestNeighborsWeighted(1, q, w); got != nil {
			t.Errorf("kNN with weights %v = %v, want nil", w, got)
		}
		if got := tr.WithinRadiusWeighted(q, 100, w); got != nil {
			t.Errorf("ball with weights %v = %v, want nil", w, got)
		}
	}
	// nil weights fall back to the unweighted metric.
	if got := tr.NearestNeighborsWeighted(1, q, nil); len(got) != 1 {
		t.Errorf("kNN with nil weights = %v", got)
	}
}
