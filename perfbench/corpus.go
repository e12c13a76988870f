package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"

	"threedess/internal/core"
	"threedess/internal/dataset"
	"threedess/internal/faultfs"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/scatter"
	"threedess/internal/shapedb"
)

// genShape is one generated mesh with its OFF rendering, the exact bytes a
// client uploads.
type genShape struct {
	Name  string
	Group int
	Mesh  *geom.Mesh
	OFF   string
}

// generate renders the seed's 113-shape corpus (dataset.Generate) to OFF.
// Different seeds give different meshes, so a stream of never-repeated
// uploads draws corpora from successive derived seeds.
func generate(seed int64) ([]genShape, error) {
	shapes, err := dataset.Generate(seed)
	if err != nil {
		return nil, fmt.Errorf("generating corpus for seed %d: %w", seed, err)
	}
	out := make([]genShape, len(shapes))
	for i, s := range shapes {
		off := offString(s.Mesh)
		// Re-read the OFF so the in-process mesh is exactly what the server
		// parses from the upload (WriteOFF rounds coordinates).
		m, err := geom.ReadOFF(strings.NewReader(off))
		if err != nil {
			return nil, fmt.Errorf("re-reading %s: %w", s.Name, err)
		}
		out[i] = genShape{Name: s.Name, Group: s.Group, Mesh: m, OFF: off}
	}
	return out, nil
}

// offString renders a mesh as OFF text.
func offString(m *geom.Mesh) string {
	var b strings.Builder
	_ = geom.WriteOFF(&b, m) // a strings.Builder write cannot fail
	return b.String()
}

// extractCore runs the server's quarantine pipeline (sanitize, extract the
// four core descriptors) over shapes on workers goroutines, so the sets are
// bit-identical to what the server stores for the same upload.
func extractCore(shapes []genShape, workers int) ([]features.Set, error) {
	db, err := shapedb.Open("", features.Options{})
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(db)
	sets := make([]features.Set, len(shapes))
	errs := make([]error, len(shapes))
	var wg sync.WaitGroup
	next := make(chan int)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sets[i], _, _, errs[i] = eng.ExtractUntrusted(shapes[i].Mesh, features.CoreKinds)
			}
		}()
	}
	for i := range shapes {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("extracting %s: %w", shapes[i].Name, err)
		}
	}
	return sets, nil
}

// boxMesh is the one small mesh every descriptor-only record carries.
var boxMesh = geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))

// jitterCorpus builds n descriptor-only records with ids 1..n into an
// in-memory store. Record i carries base set i mod len(base) with every
// coordinate scaled by an independent factor in [0.95, 1.05]: real
// descriptor distributions (which colstore pruning depends on) at a
// corpus size extraction could never reach in a benchmark's set-up.
func jitterCorpus(seed int64, names []genShape, base []features.Set, n int) (*shapedb.DB, error) {
	db, err := shapedb.Open("", features.Options{})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	for i := range n {
		b := i % len(base)
		set := make(features.Set, len(base[b]))
		for _, k := range features.CoreKinds {
			v := base[b][k]
			jv := make(features.Vector, len(v))
			for d, x := range v {
				jv[d] = x * (1 + 0.05*(2*rng.Float64()-1))
			}
			set[k] = jv
		}
		name := fmt.Sprintf("%s-j%d", names[b].Name, i/len(base))
		if _, err := db.InsertWith(name, names[b].Group, boxMesh, set, shapedb.InsertOpts{ID: int64(i + 1)}); err != nil {
			return nil, fmt.Errorf("building record %d: %w", i+1, err)
		}
	}
	return db, nil
}

// importDirs lands every record of src in durable stores through
// shapedb.ImportFrames: one dir when ring is nil, otherwise dirs[s] gets the
// records ring.Owner assigns to shard s. It is the untimed preparation of
// the pre-populated workloads; the servers then replay these journals.
func importDirs(src *shapedb.DB, dirs []string, ring *scatter.Ring) error {
	ids := src.IDs()
	per := make([][]int64, len(dirs))
	for _, id := range ids {
		s := 0
		if ring != nil {
			s = ring.Owner(id)
		}
		per[s] = append(per[s], id)
	}
	errs := make([]error, len(dirs))
	var wg sync.WaitGroup
	for s, dir := range dirs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = importInto(src, dir, per[s])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func importInto(src *shapedb.DB, dir string, ids []int64) error {
	dst, err := shapedb.OpenFS(dir, features.Options{}, faultfs.OS{})
	if err != nil {
		return fmt.Errorf("opening %s: %w", dir, err)
	}
	const chunk = 4096
	for lo := 0; lo < len(ids); lo += chunk {
		hi := min(lo+chunk, len(ids))
		frames, err := src.ExportRecords(ids[lo:hi])
		if err != nil {
			dst.Close()
			return fmt.Errorf("exporting records: %w", err)
		}
		if _, err := dst.ImportFrames(frames); err != nil {
			dst.Close()
			return fmt.Errorf("importing into %s: %w", dir, err)
		}
	}
	if err := dst.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", dir, err)
	}
	return nil
}

// shardDirs names the per-shard data directories under root.
func shardDirs(root string, n int) []string {
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(root, fmt.Sprintf("shard-%d", i))
	}
	return dirs
}

// ctxBackground is the context of the benchmark's in-process engine calls.
var ctxBackground = context.Background()
