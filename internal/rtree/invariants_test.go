package rtree

import (
	"math"
	"math/rand"
	"testing"
)

// checkSound fails the test if the tree violates any structural invariant
// or if its leaves do not hold exactly wantIDs (nil skips the content
// check).
func checkSound(t *testing.T, tr *Tree, wantIDs map[int64]Point) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
	got := make(map[int64]Point, tr.Len())
	var walk func(n *node)
	walk = func(n *node) {
		if !n.leaf {
			for _, c := range n.children {
				walk(c)
			}
			return
		}
		for i, id := range n.ids {
			if _, dup := got[id]; dup {
				t.Fatalf("id %d stored twice", id)
			}
			got[id] = append(Point(nil), tr.nbox(n, i)[:tr.dim]...)
		}
	}
	walk(tr.root)
	if wantIDs == nil {
		return
	}
	if len(got) != len(wantIDs) {
		t.Fatalf("tree holds %d entries, want %d", len(got), len(wantIDs))
	}
	for id, p := range wantIDs {
		gp, ok := got[id]
		if !ok {
			t.Fatalf("id %d missing from tree", id)
		}
		for d := range p {
			if gp[d] != p[d] {
				t.Fatalf("id %d stored at %v, want %v", id, gp, p)
			}
		}
	}
}

// loadSound bulk-loads want and checks the result with checkSound.
func loadSound(t *testing.T, dim, capacity int, want map[int64]Point) *Tree {
	t.Helper()
	items := make([]BulkItem, 0, len(want))
	for id, p := range want {
		items = append(items, BulkItem{ID: id, Point: p})
	}
	tr, err := BulkLoad(dim, capacity, items)
	if err != nil {
		t.Fatal(err)
	}
	checkSound(t, tr, want)
	return tr
}

func TestCheckInvariantsEmptyAndSmall(t *testing.T) {
	want := map[int64]Point{}
	loadSound(t, 3, 8, want)
	for i := int64(0); i < 3; i++ {
		want[i] = Point{float64(i), float64(i * 2), float64(i * 3)}
		loadSound(t, 3, 8, want)
	}
}

// TestCheckInvariantsRandomWorkload bulk-loads a random workload of point
// sets — sizes around every packing boundary, several fan-outs and
// dimensions, clustered and duplicate points — and checks every
// structural invariant of each packed tree.
func TestCheckInvariantsRandomWorkload(t *testing.T) {
	for _, capacity := range []int{4, 8, 16} {
		rng := rand.New(rand.NewSource(int64(42 + capacity)))
		for round := 0; round < 60; round++ {
			dim := 1 + rng.Intn(4)
			n := rng.Intn(capacity * capacity * 3)
			if round%10 == 0 {
				n = capacity * (1 + round/10) // exactly full nodes
			}
			live := make(map[int64]Point, n)
			for id := int64(0); id < int64(n); id++ {
				p := make(Point, dim)
				for d := range p {
					switch round % 3 {
					case 0:
						p[d] = rng.Float64() * 100
					case 1:
						p[d] = float64(rng.Intn(3)) // heavy duplication
					default:
						p[d] = math.Floor(rng.NormFloat64() * 4)
					}
				}
				live[id] = p
			}
			loadSound(t, dim, capacity, live)
		}
	}
}

// TestCheckInvariantsDetectsDamage corrupts a tree on purpose and checks
// the walk reports it — a checker that cannot fail is worthless.
func TestCheckInvariantsDetectsDamage(t *testing.T) {
	build := func() *Tree {
		rng := rand.New(rand.NewSource(11))
		return buildTree(t, randomPoints(300, 2, rng), 2, 4)
	}

	t.Run("size-mismatch", func(t *testing.T) {
		tr := build()
		tr.size++
		if err := tr.CheckInvariants(); err == nil {
			t.Fatal("inflated size not detected")
		}
	})

	t.Run("loose-box", func(t *testing.T) {
		tr := build()
		if tr.root.leaf {
			t.Skip("tree did not split")
		}
		tr.root.boxes[tr.dim] += 5 // first entry's max[0]: no longer tight
		if err := tr.CheckInvariants(); err == nil {
			t.Fatal("loose bounding box not detected")
		}
	})

	t.Run("lost-entry", func(t *testing.T) {
		tr := build()
		if tr.root.leaf {
			t.Skip("tree did not split")
		}
		// Drop a leaf entry without updating ancestors: breaks either the
		// tight-box invariant or (if the box happens to stay tight) the
		// size accounting.
		n := tr.root
		for !n.leaf {
			n = n.children[0]
		}
		n.ids = n.ids[:len(n.ids)-1]
		n.boxes = n.boxes[:len(n.boxes)-2*tr.dim]
		if err := tr.CheckInvariants(); err == nil {
			t.Fatal("dropped leaf entry not detected")
		}
	})
}
