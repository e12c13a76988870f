package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"

	"threedess/internal/features"
	"threedess/internal/geom"
)

// searchKinds are the descriptors the search workloads query: a 3-d and
// an 8-d space, so both index shapes are exercised.
var searchKinds = []features.Kind{features.PrincipalMoments, features.Eigenvalues}

// share is one entry of an operation mix.
type share struct {
	op string
	p  float64
}

// searchGen generates the requests of a search workload from one rand
// source: query vectors are stored descriptor sets with fresh jitter,
// weights are drawn per request, so no two requests repeat (except
// query-by-id over a hot set, which is meant to).
type searchGen struct {
	rng     *rand.Rand
	base    []features.Set // the seed corpus's extracted descriptors
	mix     []share
	thresh  thresholds
	byID    func(*rand.Rand) int64 // picks the query_id of opByID
	insertN int                    // inserts generated so far
	tag     string                 // names inserts uniquely per stream
}

func (g *searchGen) next() request {
	u := g.rng.Float64()
	op := g.mix[len(g.mix)-1].op
	for _, s := range g.mix {
		if u < s.p {
			op = s.op
			break
		}
		u -= s.p
	}
	return g.make(op, searchKinds[g.rng.Intn(len(searchKinds))])
}

// make generates one request of the given operation and descriptor.
func (g *searchGen) make(op string, kind features.Kind) request {
	switch op {
	case opWeighted:
		v, _ := g.vector(kind)
		return searchRequest(op, searchBody{QueryVector: v, K: 10, Weights: g.weights(kind)}, kind)
	case opUnweighted:
		v, _ := g.vector(kind)
		return searchRequest(op, searchBody{QueryVector: v, K: 10}, kind)
	case opThreshold:
		v, base := g.vector(kind)
		t := g.thresh.of(kind, base)
		return searchRequest(op, searchBody{QueryVector: v, Threshold: &t, Weights: g.weights(kind)}, kind)
	case opByID:
		return searchRequest(op, searchBody{QueryID: g.byID(g.rng), K: 10}, kind)
	case opInsert:
		g.insertN++
		return insertRequest(fmt.Sprintf("ins-%s-%d", g.tag, g.insertN), smallMesh(g.rng))
	}
	panic("unknown search op " + op) // the mixes are constants of this file
}

// vector is a stored descriptor, chosen at random, with every coordinate
// scaled by a factor in [0.95, 1.05]. It also returns which one.
func (g *searchGen) vector(kind features.Kind) ([]float64, int) {
	b := g.rng.Intn(len(g.base))
	v := g.base[b][kind]
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * (1 + 0.05*(2*g.rng.Float64()-1))
	}
	return out, b
}

// thresholds holds one similarity threshold per searched descriptor and
// base descriptor set: corpus density differs a lot between the regions
// around different shapes, and one global threshold would return a
// handful of rows near some and thousands near others.
type thresholds map[features.Kind][]float64

// of is the threshold for queries around base set b (0.9 when none was
// calibrated).
func (t thresholds) of(kind features.Kind, b int) float64 {
	if ts := t[kind]; b < len(ts) {
		return ts[b]
	}
	return 0.9
}

func (g *searchGen) weights(kind features.Kind) []float64 {
	return randomWeights(g.rng, len(g.base[0][kind]))
}

// randomWeights draws per-dimension weights log-uniformly from [1/4, 4]
// and scales them to mean 1, so a weighted distance keeps the unweighted
// scale and threshold answers keep about their calibrated size.
func randomWeights(rng *rand.Rand, dim int) []float64 {
	w := make([]float64, dim)
	sum := 0.0
	for i := range w {
		w[i] = math.Exp((2*rng.Float64() - 1) * math.Ln2 * 2)
		sum += w[i]
	}
	for i := range w {
		w[i] *= float64(dim) / sum
	}
	return w
}

// smallMesh is a box with random proportions: a cheap, valid upload.
func smallMesh(rng *rand.Rand) string {
	m := geom.Box(geom.V(0, 0, 0), geom.V(0.5+rng.Float64(), 0.5+rng.Float64(), 0.5+rng.Float64()))
	return offString(m)
}

func insertRequest(name, off string) request {
	return request{
		Op: opInsert, Method: http.MethodPost, Path: "/api/shapes",
		Body: mustJSON(wireShape{Name: name, MeshOFF: off}), Names: []string{name},
	}
}

// zipfIDs picks ids from a hot set with Zipf-skewed popularity, so some
// queries repeat and caches can hit.
func zipfIDs(rng *rand.Rand, hot []int64) func(*rand.Rand) int64 {
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(hot)-1))
	return func(*rand.Rand) int64 { return hot[z.Uint64()] }
}

// uniqueIDs walks a permutation of 1..n from offset in steps of stride, so
// streams with different offsets never repeat an id.
func uniqueIDs(perm []int, offset, stride int) func(*rand.Rand) int64 {
	i := offset
	return func(*rand.Rand) int64 {
		id := int64(perm[i%len(perm)] + 1)
		i += stride
		return id
	}
}

// batchGen is ingest_upload's writer: batches of never-repeated generated
// meshes, drawn from corpora of successive derived seeds.
type batchGen struct {
	seed   int64
	size   int
	pool   []genShape
	corpus int64
	n      int
}

func (g *batchGen) next() request {
	shapes := make([]wireShape, 0, g.size)
	var names []string
	for len(shapes) < g.size {
		if len(g.pool) == 0 {
			g.pool = mustGenerate(g.seed*1000 + 100 + g.corpus)
			g.corpus++
		}
		s := g.pool[0]
		g.pool = g.pool[1:]
		g.n++
		names = append(names, fmt.Sprintf("up-%d-%d", g.seed, g.n))
		shapes = append(shapes, wireShape{Name: names[len(names)-1], Group: s.Group, MeshOFF: s.OFF})
	}
	return batchRequest(shapes, names)
}

func batchRequest(shapes []wireShape, names []string) request {
	return request{
		Op: opBatchInsert, Method: http.MethodPost, Path: "/api/shapes/batch",
		Body: mustJSON(map[string]any{"shapes": shapes}), Names: names,
	}
}

// uploadGen is ingest_upload's reader: query-by-example uploads of
// held-out meshes, cycling over the four core descriptors with every
// second group of four weighted; every tenth query re-uploads a stored
// shape, which must come back first at distance 0.
type uploadGen struct {
	seed   int64
	rng    *rand.Rand
	stored []genShape // the base corpus, stored under ids 1..len
	pool   []genShape
	corpus int64
	i      int
}

func (g *uploadGen) next() request {
	i := g.i
	g.i++
	if i%10 == 9 {
		j := g.rng.Intn(len(g.stored))
		r := searchRequest(opUploadSelf, searchBody{MeshOFF: g.stored[j].OFF, K: 10}, features.PrincipalMoments)
		r.Self = int64(j + 1)
		return r
	}
	if len(g.pool) == 0 {
		g.pool = mustGenerate(g.seed*1000 + 500 + g.corpus)
		g.corpus++
	}
	s := g.pool[0]
	g.pool = g.pool[1:]
	kind := features.CoreKinds[i%len(features.CoreKinds)]
	b := searchBody{MeshOFF: s.OFF, K: 10}
	if (i/len(features.CoreKinds))%2 == 1 {
		b.Weights = randomWeights(g.rng, features.DefaultOptions().Dim(kind))
	}
	return searchRequest(opUpload, b, kind)
}

// mustGenerate is generate for derived seeds inside a stream, where the
// generator is deterministic and cannot fail for a valid seed.
func mustGenerate(seed int64) []genShape {
	s, err := generate(seed)
	if err != nil {
		panic(err) // dataset.Generate fails only on a bug
	}
	return s
}
