package rtree

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func randomPoints(n, dim int, rng *rand.Rand) []Point {
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, dim)
		for d := range p {
			p[d] = rng.Float64() * 100
		}
		pts[i] = p
	}
	return pts
}

// linearKNN is the brute-force reference for k-NN.
func linearKNN(pts []Point, q Point, k int) []Neighbor {
	out := make([]Neighbor, 0, len(pts))
	for i, p := range pts {
		out = append(out, Neighbor{ID: int64(i), Dist: Dist(p, q)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}

// buildTree bulk-loads pts with ids 0..len(pts)-1.
func buildTree(t *testing.T, pts []Point, dim, capacity int) *Tree {
	t.Helper()
	items := make([]BulkItem, len(pts))
	for i, p := range pts {
		items[i] = BulkItem{ID: int64(i), Point: p}
	}
	tr, err := BulkLoad(dim, capacity, items)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := newTree(0, 8); err == nil {
		t.Error("zero dimension accepted")
	}
	tr, err := BulkLoad(3, 2, nil) // below minimum fan-out: raised to 4
	if err != nil {
		t.Fatal(err)
	}
	if tr.maxEntries != 4 {
		t.Errorf("maxEntries = %d, want 4", tr.maxEntries)
	}
}

// TestInsertValidation checks that a bad point cannot enter a tree: the
// load fails and names the offending item.
func TestInsertValidation(t *testing.T) {
	for _, bad := range []Point{{1, 2}, {1, 2, math.NaN()}, {1, 2, math.Inf(1)}} {
		items := []BulkItem{{ID: 1, Point: Point{0, 0, 0}}, {ID: 42, Point: bad}}
		_, err := BulkLoad(3, 8, items)
		if err == nil {
			t.Errorf("point %v accepted", bad)
		} else if !strings.Contains(err.Error(), "item 42") {
			t.Errorf("point %v: error %q does not name item 42", bad, err)
		}
	}
}

func TestRectValidation(t *testing.T) {
	if _, err := NewRect(Point{0, 0}, Point{1}); err == nil {
		t.Error("mismatched corners accepted")
	}
	if _, err := NewRect(Point{2, 0}, Point{1, 1}); err == nil {
		t.Error("inverted rect accepted")
	}
	r, err := NewRect(Point{0, 0}, Point{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if b := rectBox(r); !boxEqual(b, []float64{0, 0, 2, 3}) {
		t.Errorf("box = %v", b)
	}
}

func TestRectOps(t *testing.T) {
	a, _ := NewRect(Point{0, 0}, Point{2, 2})
	b, _ := NewRect(Point{1, 1}, Point{3, 3})
	c, _ := NewRect(Point{5, 5}, Point{6, 6})
	if !boxIntersects(rectBox(a), rectBox(b)) || !boxIntersects(rectBox(b), rectBox(a)) {
		t.Error("overlapping rects not intersecting")
	}
	if boxIntersects(rectBox(a), rectBox(c)) {
		t.Error("distant rects intersecting")
	}
	if !boxIntersects(rectBox(a), rectBox(Rect{Point{2, 2}, Point{4, 4}})) {
		t.Error("touching rects not intersecting")
	}
	ub := rectBox(a)
	boxEnlarge(ub, rectBox(b))
	if u := boxRect(ub); u.Min[0] != 0 || u.Max[1] != 3 {
		t.Errorf("union = %v", u)
	}
}

func TestMinDist(t *testing.T) {
	b := []float64{0, 0, 2, 2}
	if d := boxMinDist(b, Point{1, 1}, nil); d != 0 {
		t.Errorf("inside MinDist = %v", d)
	}
	if d := boxMinDist(b, Point{5, 2}, nil); d != 3 {
		t.Errorf("side MinDist = %v", d)
	}
	if d := boxMinDist(b, Point{5, 6}, nil); math.Abs(d-5) > 1e-12 {
		t.Errorf("corner MinDist = %v, want 5", d)
	}
	if d := boxMinDist(b, Point{5, 6}, []float64{4, 0}); d != 6 {
		t.Errorf("weighted MinDist = %v, want 6", d)
	}
}

func TestSearchMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	pts := randomPoints(500, 3, rng)
	tr := buildTree(t, pts, 3, 8)
	for trial := 0; trial < 50; trial++ {
		lo := Point{rng.Float64() * 80, rng.Float64() * 80, rng.Float64() * 80}
		hi := Point{lo[0] + rng.Float64()*30, lo[1] + rng.Float64()*30, lo[2] + rng.Float64()*30}
		q, _ := NewRect(lo, hi)
		want := map[int64]bool{}
		for i, p := range pts {
			if p[0] >= lo[0] && p[0] <= hi[0] && p[1] >= lo[1] && p[1] <= hi[1] && p[2] >= lo[2] && p[2] <= hi[2] {
				want[int64(i)] = true
			}
		}
		got := map[int64]bool{}
		tr.Search(q, func(id int64, _ Rect) bool {
			got[id] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing id %d", trial, id)
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pts := randomPoints(200, 2, rng)
	tr := buildTree(t, pts, 2, 8)
	count := 0
	all, _ := NewRect(Point{0, 0}, Point{100, 100})
	tr.Search(all, func(int64, Rect) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestKNNMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, dim := range []int{2, 3, 5} {
		pts := randomPoints(400, dim, rng)
		tr := buildTree(t, pts, dim, 8)
		for trial := 0; trial < 30; trial++ {
			q := randomPoints(1, dim, rng)[0]
			for _, k := range []int{1, 5, 17} {
				want := linearKNN(pts, q, k)
				got := tr.NearestNeighbors(k, q)
				if len(got) != len(want) {
					t.Fatalf("dim %d k %d: got %d results", dim, k, len(got))
				}
				for i := range got {
					if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
						t.Fatalf("dim %d k %d rank %d: got %+v, want %+v", dim, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestKNNOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	pts := randomPoints(300, 4, rng)
	tr := buildTree(t, pts, 4, 8)
	res := tr.NearestNeighbors(50, randomPoints(1, 4, rng)[0])
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("k-NN results not in increasing distance order")
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	tr := buildTree(t, nil, 2, 8)
	if got := tr.NearestNeighbors(3, Point{0, 0}); got != nil {
		t.Errorf("empty tree k-NN = %v", got)
	}
	tr, _ = BulkLoad(2, 8, []BulkItem{{ID: 7, Point: Point{1, 1}}})
	if got := tr.NearestNeighbors(0, Point{0, 0}); got != nil {
		t.Errorf("k=0 = %v", got)
	}
	got := tr.NearestNeighbors(10, Point{0, 0})
	if len(got) != 1 || got[0].ID != 7 {
		t.Errorf("k>size = %v", got)
	}
	if got := tr.NearestNeighbors(1, Point{0}); got != nil {
		t.Errorf("wrong-dimension query = %v", got)
	}
}

func TestWithinRadiusMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	pts := randomPoints(400, 3, rng)
	tr := buildTree(t, pts, 3, 8)
	for trial := 0; trial < 30; trial++ {
		q := randomPoints(1, 3, rng)[0]
		radius := rng.Float64() * 40
		want := map[int64]float64{}
		for i, p := range pts {
			if d := Dist(p, q); d <= radius {
				want[int64(i)] = d
			}
		}
		got := tr.WithinRadius(q, radius)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Fatal("radius results not sorted")
			}
		}
		for _, n := range got {
			if _, ok := want[n.ID]; !ok {
				t.Fatalf("unexpected id %d", n.ID)
			}
		}
	}
}

func TestWithinRadiusEdgeCases(t *testing.T) {
	tr := buildTree(t, nil, 2, 8)
	if got := tr.WithinRadius(Point{0, 0}, 5); got != nil {
		t.Errorf("empty tree = %v", got)
	}
	tr = buildTree(t, []Point{{1, 0}}, 2, 8)
	if got := tr.WithinRadius(Point{0, 0}, -1); got != nil {
		t.Errorf("negative radius = %v", got)
	}
	if got := tr.WithinRadius(Point{0, 0}, 1); len(got) != 1 {
		t.Errorf("boundary point missing: %v", got)
	}
}

// TestHeightGrowth checks the packed tree is exactly as tall as its
// fan-out requires: ceil(log_M n) levels above the points, at least one.
func TestHeightGrowth(t *testing.T) {
	if h := buildTree(t, nil, 2, 4).Height(); h != 1 {
		t.Errorf("empty height = %d", h)
	}
	rng := rand.New(rand.NewSource(67))
	for _, n := range []int{1, 4, 5, 16, 17, 64, 65, 500} {
		tr := buildTree(t, randomPoints(n, 2, rng), 2, 4)
		want := 1
		for c := 4; c < n; c *= 4 {
			want++
		}
		if h := tr.Height(); h != want {
			t.Errorf("height of %d points at fan-out 4 = %d, want %d", n, h, want)
		}
		if tr.Len() != n {
			t.Errorf("Len = %d, want %d", tr.Len(), n)
		}
	}
}

func TestNodeAccessesPruning(t *testing.T) {
	// k-NN on an indexed set must touch far fewer nodes than exist.
	rng := rand.New(rand.NewSource(68))
	pts := randomPoints(5000, 3, rng)
	tr := buildTree(t, pts, 3, 16)
	tr.ResetStats()
	tr.NearestNeighbors(10, Point{50, 50, 50})
	accesses := tr.NodeAccesses()
	if accesses == 0 {
		t.Fatal("no node accesses recorded")
	}
	// A full scan would touch every node; pruned search should visit a
	// small fraction. With 5000 points and fan-out 16 there are ≥313 leaf
	// nodes.
	if accesses > 150 {
		t.Errorf("k-NN visited %d nodes — pruning ineffective", accesses)
	}
}
