// Package rtree implements a static, STR-packed R-tree over points in
// arbitrary dimension, with window search, ball (threshold) search, and
// best-first k-nearest-neighbor search with MBR pruning — the
// multidimensional access method the DATABASE tier of the paper builds on
// top of its record store (§2.3). A tree is built once by BulkLoad and
// never modified; a changed point set gets a new tree.
//
// Nodes use an RBush-style flat layout (the idiom of tidwall/rtree): one
// contiguous []float64 holds every entry's box (2·dim coordinates per
// entry, min corner then max corner) next to a parallel child-pointer or
// payload-id slice, so scanning a node during search or k-NN is one
// sequential read with no per-entry pointer chasing or allocation.
//
// Best-first k-NN and ball search come in unweighted and weighted forms;
// the weighted forms prune with the weighted MinDist bound, which remains
// a valid lower bound of the weighted Euclidean metric of Equation 4.3
// (every squared per-dimension term is scaled by the same non-negative
// weight in both the bound and the true distance).
//
// The tree also counts node accesses per query so the paper's index
// efficiency claim ("almost optimal for small real databases and efficient
// for large synthetic databases") can be measured.
package rtree

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Point is a position in feature space.
type Point []float64

// Rect is an axis-aligned (hyper-)rectangle: the tight bounding box
// representation used by the paper, stored as its two diagonal corners.
type Rect struct {
	Min, Max Point
}

// NewRect validates and returns a rectangle.
func NewRect(min, max Point) (Rect, error) {
	if len(min) != len(max) {
		return Rect{}, fmt.Errorf("rtree: corner dimensions differ: %d vs %d", len(min), len(max))
	}
	for i := range min {
		if min[i] > max[i] {
			return Rect{}, fmt.Errorf("rtree: min[%d]=%g > max[%d]=%g", i, min[i], i, max[i])
		}
	}
	return Rect{Min: min, Max: max}, nil
}

// Dist returns the Euclidean distance between two points.
func Dist(a, b Point) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// ---------------------------------------------------------------------------
// Flat box helpers. A "box" is one entry's rectangle stored inline in its
// node's boxes array: len(b) == 2*dim, min corner in b[:dim], max corner in
// b[dim:]. The dimension is implied by the slice length.

// rectBox flattens a Rect into box form (allocates).
func rectBox(r Rect) []float64 {
	b := make([]float64, len(r.Min)*2)
	copy(b, r.Min)
	copy(b[len(r.Min):], r.Max)
	return b
}

// boxRect materializes a box back into a Rect (allocates copies, so the
// caller may retain it).
func boxRect(b []float64) Rect {
	d := len(b) / 2
	min := make(Point, d)
	max := make(Point, d)
	copy(min, b[:d])
	copy(max, b[d:])
	return Rect{Min: min, Max: max}
}

// boxEnlarge grows a in place to cover b.
func boxEnlarge(a, b []float64) {
	d := len(a) / 2
	for i := 0; i < d; i++ {
		if b[i] < a[i] {
			a[i] = b[i]
		}
		if b[d+i] > a[d+i] {
			a[d+i] = b[d+i]
		}
	}
}

func boxIntersects(a, b []float64) bool {
	d := len(a) / 2
	for i := 0; i < d; i++ {
		if a[i] > b[d+i] || a[d+i] < b[i] {
			return false
		}
	}
	return true
}

func boxEqual(a, b []float64) bool {
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

// boxMinDist is the minimum distance from p to any point of the box
// (zero when p is inside) under the (optionally weighted) Euclidean
// metric — the k-NN pruning bound of Roussopoulos et al. With w == nil
// the metric is unweighted. Since every squared per-dimension term is
// scaled by the same non-negative weight as in the true weighted distance,
// the result lower-bounds the weighted distance from p to every point
// inside the box, so it stays a safe pruning bound for the weighted k-NN.
func boxMinDist(b []float64, p Point, w []float64) float64 {
	d := len(p)
	sum := 0.0
	for i := 0; i < d; i++ {
		var dd float64
		switch {
		case p[i] < b[i]:
			dd = b[i] - p[i]
		case p[i] > b[d+i]:
			dd = p[i] - b[d+i]
		}
		if w != nil {
			sum += w[i] * dd * dd
		} else {
			sum += dd * dd
		}
	}
	return math.Sqrt(sum)
}

// ---------------------------------------------------------------------------

// node is one R-tree node in flat layout: boxes holds the entries'
// rectangles inline (2·dim floats per entry), parallel to children (for
// internal nodes) or ids (for leaves).
type node struct {
	leaf     bool
	boxes    []float64
	children []*node
	ids      []int64
}

// count returns the number of entries in n.
func (n *node) count() int {
	if n.leaf {
		return len(n.ids)
	}
	return len(n.children)
}

// Tree is a static R-tree built by BulkLoad. It is immutable once built,
// so any number of goroutines may query it concurrently.
type Tree struct {
	dim        int
	maxEntries int
	root       *node
	size       int

	// accesses counts nodes visited by queries since the last ResetStats.
	// It is atomic so concurrent queries stay race-free.
	accesses atomic.Int64
}

// DefaultMaxEntries is the default node fan-out.
const DefaultMaxEntries = 16

// newTree creates an empty tree for the given dimensionality and node
// capacity; maxEntries < 4 is raised to 4.
func newTree(dim, maxEntries int) (*Tree, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("rtree: dimension must be positive, got %d", dim)
	}
	if maxEntries < 4 {
		maxEntries = 4
	}
	return &Tree{dim: dim, maxEntries: maxEntries, root: &node{leaf: true}}, nil
}

// Dim returns the tree's dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.size }

// NodeAccesses returns the number of nodes visited by queries since the
// last ResetStats.
func (t *Tree) NodeAccesses() int { return int(t.accesses.Load()) }

// ResetStats zeroes the node-access counter.
func (t *Tree) ResetStats() { t.accesses.Store(0) }

// Height returns the height of the tree (1 for a single leaf).
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// nbox returns entry i's box inside n (aliases the node's storage).
func (t *Tree) nbox(n *node, i int) []float64 {
	s := 2 * t.dim
	return n.boxes[i*s : i*s+s]
}

func (t *Tree) checkPoint(p Point) error {
	if len(p) != t.dim {
		return fmt.Errorf("rtree: point dimension %d, tree dimension %d", len(p), t.dim)
	}
	for i, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("rtree: non-finite coordinate %g at dimension %d", v, i)
		}
	}
	return nil
}

func (t *Tree) checkWeights(w []float64) error {
	if w == nil {
		return nil
	}
	if len(w) != t.dim {
		return fmt.Errorf("rtree: %d weights for tree dimension %d", len(w), t.dim)
	}
	for i, v := range w {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("rtree: invalid weight %g at dimension %d", v, i)
		}
	}
	return nil
}

// nodeBoxInto writes the tight bounding box of n's entries into dst
// (len 2·dim). n must have at least one entry.
func (t *Tree) nodeBoxInto(dst []float64, n *node) {
	s := 2 * t.dim
	copy(dst, n.boxes[:s])
	cnt := n.count()
	for i := 1; i < cnt; i++ {
		boxEnlarge(dst, n.boxes[i*s:i*s+s])
	}
}

// Search calls fn for every entry whose rectangle intersects query. fn
// returning false stops the search early.
func (t *Tree) Search(query Rect, fn func(id int64, r Rect) bool) {
	t.search(t.root, rectBox(query), fn)
}

func (t *Tree) search(n *node, qb []float64, fn func(id int64, r Rect) bool) bool {
	t.accesses.Add(1)
	cnt := n.count()
	for i := 0; i < cnt; i++ {
		if !boxIntersects(t.nbox(n, i), qb) {
			continue
		}
		if n.leaf {
			if !fn(n.ids[i], boxRect(t.nbox(n, i))) {
				return false
			}
		} else if !t.search(n.children[i], qb, fn) {
			return false
		}
	}
	return true
}

// Neighbor is one k-NN result.
type Neighbor struct {
	ID   int64
	Dist float64
}

// NearestNeighbors returns the k entries nearest to p in increasing
// distance order, using best-first traversal with MinDist pruning.
func (t *Tree) NearestNeighbors(k int, p Point) []Neighbor {
	return t.knn(k, p, nil)
}

// NearestNeighborsWeighted is NearestNeighbors under the weighted
// Euclidean metric of Equation 4.3 (w == nil means uniform weights).
// Weights must be non-negative and finite with one weight per dimension;
// invalid weights return nil. The weighted MinDist bound keeps the
// best-first traversal exact under the weighted metric.
func (t *Tree) NearestNeighborsWeighted(k int, p Point, w []float64) []Neighbor {
	if err := t.checkWeights(w); err != nil {
		return nil
	}
	return t.knn(k, p, w)
}

func (t *Tree) knn(k int, p Point, w []float64) []Neighbor {
	if k <= 0 || t.size == 0 {
		return nil
	}
	if err := t.checkPoint(p); err != nil {
		return nil
	}
	pq := &minHeap{}
	pq.push(heapItem{dist: 0, node: t.root})
	var out []Neighbor
	for pq.len() > 0 {
		it := pq.pop()
		if it.node != nil {
			t.accesses.Add(1)
			n := it.node
			cnt := n.count()
			for i := 0; i < cnt; i++ {
				d := boxMinDist(t.nbox(n, i), p, w)
				if n.leaf {
					pq.push(heapItem{dist: d, id: n.ids[i], isEntry: true})
				} else {
					pq.push(heapItem{dist: d, node: n.children[i]})
				}
			}
			continue
		}
		// An entry popped before any remaining node/entry is final.
		out = append(out, Neighbor{ID: it.id, Dist: it.dist})
		if len(out) == k {
			return out
		}
	}
	return out
}

// WithinRadius returns every entry within Euclidean distance radius of p,
// in increasing distance order. This implements the paper's threshold
// query: similarity ≥ s corresponds to distance ≤ (1−s)·dmax.
func (t *Tree) WithinRadius(p Point, radius float64) []Neighbor {
	return t.ball(p, radius, nil)
}

// WithinRadiusWeighted is WithinRadius under the weighted Euclidean
// metric (w == nil means uniform weights; invalid weights return nil).
func (t *Tree) WithinRadiusWeighted(p Point, radius float64, w []float64) []Neighbor {
	if err := t.checkWeights(w); err != nil {
		return nil
	}
	return t.ball(p, radius, w)
}

func (t *Tree) ball(p Point, radius float64, w []float64) []Neighbor {
	if t.size == 0 || radius < 0 {
		return nil
	}
	if err := t.checkPoint(p); err != nil {
		return nil
	}
	pq := &minHeap{}
	pq.push(heapItem{dist: 0, node: t.root})
	var out []Neighbor
	for pq.len() > 0 {
		it := pq.pop()
		if it.dist > radius {
			break
		}
		if it.node != nil {
			t.accesses.Add(1)
			n := it.node
			cnt := n.count()
			for i := 0; i < cnt; i++ {
				d := boxMinDist(t.nbox(n, i), p, w)
				if d > radius {
					continue
				}
				if n.leaf {
					pq.push(heapItem{dist: d, id: n.ids[i], isEntry: true})
				} else {
					pq.push(heapItem{dist: d, node: n.children[i]})
				}
			}
			continue
		}
		out = append(out, Neighbor{ID: it.id, Dist: it.dist})
	}
	return out
}

// heapItem is either a node (child pointer set) or a result entry.
type heapItem struct {
	dist    float64
	node    *node
	id      int64
	isEntry bool
}

// minHeap is a binary min-heap over heapItem.dist. Entries tie-break
// before nodes so results pop deterministically.
type minHeap struct {
	items []heapItem
}

func (h *minHeap) len() int { return len(h.items) }

func (h *minHeap) less(i, j int) bool {
	if h.items[i].dist != h.items[j].dist {
		return h.items[i].dist < h.items[j].dist
	}
	if h.items[i].isEntry != h.items[j].isEntry {
		return h.items[i].isEntry
	}
	return h.items[i].id < h.items[j].id
}

func (h *minHeap) push(it heapItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *minHeap) pop() heapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.items) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}
