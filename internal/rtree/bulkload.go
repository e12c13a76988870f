package rtree

import (
	"fmt"
	"math"
	"sort"
)

// BulkItem is one (id, point) pair for bulk loading.
type BulkItem struct {
	ID    int64
	Point Point
}

// bulkEntry is one build-time entry of the STR packer: a flat box plus
// either a child node (upper levels) or a payload id (leaf level).
type bulkEntry struct {
	box   []float64
	child *node
	id    int64
}

// BulkLoad builds a packed R-tree over the items using Sort-Tile-Recursive
// (STR) packing, which produces near-optimal leaf utilization and low MBR
// overlap. It is the only way to build a tree: a changed point set is
// indexed by loading a new one. dim must be positive; maxEntries < 4 is
// raised to 4.
func BulkLoad(dim, maxEntries int, items []BulkItem) (*Tree, error) {
	t, err := newTree(dim, maxEntries)
	if err != nil {
		return nil, err
	}
	entries := make([]bulkEntry, 0, len(items))
	// One contiguous backing array for every leaf box keeps the build
	// allocation-light and the copies into node storage sequential.
	backing := make([]float64, 2*dim*len(items))
	for n, it := range items {
		if err := t.checkPoint(it.Point); err != nil {
			return nil, fmt.Errorf("rtree: bulk item %d: %w", it.ID, err)
		}
		box := backing[n*2*dim : (n+1)*2*dim]
		copy(box, it.Point)
		copy(box[dim:], it.Point)
		entries = append(entries, bulkEntry{box: box, id: it.ID})
	}
	t.size = len(entries)
	if len(entries) == 0 {
		return t, nil
	}
	level := t.strPack(entries, 0, t.maxEntries, true)
	for len(level) > 1 {
		parents := make([]bulkEntry, len(level))
		for i, n := range level {
			box := make([]float64, 2*dim)
			t.nodeBoxInto(box, n)
			parents[i] = bulkEntry{box: box, child: n}
		}
		level = t.strPack(parents, 0, t.maxEntries, false)
	}
	t.root = level[0]
	return t, nil
}

// packNode copies a run of bulk entries into one flat node.
func (t *Tree) packNode(entries []bulkEntry, leaf bool) *node {
	n := &node{leaf: leaf}
	n.boxes = make([]float64, 0, len(entries)*2*t.dim)
	for _, e := range entries {
		n.boxes = append(n.boxes, e.box...)
		if leaf {
			n.ids = append(n.ids, e.id)
		} else {
			n.children = append(n.children, e.child)
		}
	}
	return n
}

// strPack tiles the entries into nodes of up to capacity entries, sorting
// recursively along each dimension. Sub-ranges are sorted in place; the
// slab boundaries are fixed before recursion, so the ranges stay disjoint.
func (t *Tree) strPack(entries []bulkEntry, axis, capacity int, leaf bool) []*node {
	if len(entries) <= capacity {
		return []*node{t.packNode(entries, leaf)}
	}
	dim := t.dim
	center := func(e bulkEntry, d int) float64 { return (e.box[d] + e.box[dim+d]) / 2 }
	sort.Slice(entries, func(i, j int) bool { return center(entries[i], axis) < center(entries[j], axis) })

	nodesNeeded := int(math.Ceil(float64(len(entries)) / float64(capacity)))
	if axis == dim-1 {
		// Last axis: cut into runs of `capacity`.
		out := make([]*node, 0, nodesNeeded)
		for start := 0; start < len(entries); start += capacity {
			end := start + capacity
			if end > len(entries) {
				end = len(entries)
			}
			out = append(out, t.packNode(entries[start:end], leaf))
		}
		return out
	}
	// Slice into ~√-balanced slabs along this axis and recurse.
	slabs := int(math.Ceil(math.Pow(float64(nodesNeeded), 1/float64(dim-axis))))
	slabSize := int(math.Ceil(float64(len(entries)) / float64(slabs)))
	var out []*node
	for start := 0; start < len(entries); start += slabSize {
		end := start + slabSize
		if end > len(entries) {
			end = len(entries)
		}
		out = append(out, t.strPack(entries[start:end], axis+1, capacity, leaf)...)
	}
	return out
}
