package shapedb

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"threedess/internal/features"
	"threedess/internal/geom"
)

// legacyFrame frames e exactly as journals were written before the binary
// payload format: one gob stream per frame. It is the oracle for every
// backward-compatibility test below.
func legacyFrame(t testing.TB, e *journalEntry) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(e); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 8+payload.Len())
	binary.LittleEndian.PutUint32(frame[0:], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload.Bytes()))
	copy(frame[8:], payload.Bytes())
	return frame
}

// randomFloat draws from ordinary values and the edge cases a bit-exact
// codec must keep: signed zero, infinities and the extremes of the range.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1 - 2*rng.Intn(2))
	case 3:
		return math.MaxFloat64
	case 4:
		return math.SmallestNonzeroFloat64
	default:
		return rng.NormFloat64() * 1e6
	}
}

func randomString(rng *rand.Rand) string {
	n := rng.Intn(6)
	if rng.Intn(8) == 0 {
		n = 200 + rng.Intn(2000) // multi-byte length varint
	}
	b := make([]byte, n)
	rng.Read(b)
	return string(b)
}

func randomInt(rng *rand.Rand) int {
	switch rng.Intn(6) {
	case 0:
		return math.MaxInt
	case 1:
		return math.MinInt
	default:
		return rng.Intn(1<<20) - 1<<19
	}
}

// randomEntry draws a journal entry covering deletes, nil and empty
// slices and maps, empty and nil feature vectors, and long names.
func randomEntry(rng *rand.Rand) *journalEntry {
	if rng.Intn(5) == 0 {
		return &journalEntry{Op: opDelete, ID: rng.Int63()}
	}
	e := &journalEntry{
		Op:      opInsert,
		ID:      rng.Int63() - math.MaxInt64/2,
		Name:    randomString(rng),
		Group:   randomInt(rng),
		IdemKey: randomString(rng),
		IdemIdx: randomInt(rng),
		IdemCnt: randomInt(rng),
	}
	switch rng.Intn(3) {
	case 1:
		e.Vertices = []geom.Vec3{}
	case 2:
		e.Vertices = make([]geom.Vec3, 1+rng.Intn(20))
		for i := range e.Vertices {
			e.Vertices[i] = geom.Vec3{X: randomFloat(rng), Y: randomFloat(rng), Z: randomFloat(rng)}
		}
	}
	switch rng.Intn(3) {
	case 1:
		e.Faces = [][3]int{}
	case 2:
		e.Faces = make([][3]int, 1+rng.Intn(20))
		for i := range e.Faces {
			e.Faces[i] = [3]int{randomInt(rng), randomInt(rng), randomInt(rng)}
		}
	}
	switch rng.Intn(3) {
	case 1:
		e.Features = map[string][]float64{}
	case 2:
		e.Features = map[string][]float64{}
		for i := rng.Intn(7); i >= 0; i-- {
			var vec []float64
			switch rng.Intn(4) {
			case 1:
				vec = []float64{}
			case 2, 3:
				vec = make([]float64, 1+rng.Intn(40))
				for j := range vec {
					vec[j] = randomFloat(rng)
				}
			}
			e.Features[randomString(rng)] = vec
		}
	}
	switch rng.Intn(3) {
	case 1:
		e.Degraded = []string{}
	case 2:
		for i := rng.Intn(4); i >= 0; i-- {
			e.Degraded = append(e.Degraded, randomString(rng))
		}
	}
	return e
}

// canonical is what decoding e should give back: empty slices, maps and
// feature vectors come back nil, as they do from gob.
func canonical(e *journalEntry) *journalEntry {
	c := *e
	if len(c.Vertices) == 0 {
		c.Vertices = nil
	}
	if len(c.Faces) == 0 {
		c.Faces = nil
	}
	if len(c.Degraded) == 0 {
		c.Degraded = nil
	}
	if len(c.Features) == 0 {
		c.Features = nil
	} else {
		c.Features = make(map[string][]float64, len(e.Features))
		for name, vec := range e.Features {
			if len(vec) == 0 {
				vec = nil
			}
			c.Features[name] = vec
		}
	}
	return &c
}

func TestEntryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		e := randomEntry(rng)
		b := encodeEntry(nil, e)
		if b[0] != entryMagic {
			t.Fatalf("entry %d: payload starts with %#x", i, b[0])
		}
		got, err := decodeEntry(b)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, canonical(e)) {
			t.Fatalf("entry %d round trip:\n got %+v\nwant %+v", i, got, canonical(e))
		}
		// DeepEqual compares floats with ==, so -0.0 and +0.0 pass it;
		// re-encoding compares every float64 bit.
		if again := encodeEntry(nil, got); !bytes.Equal(again, b) {
			t.Fatalf("entry %d: re-encoding changed the bytes", i)
		}
	}
}

func TestEntryKeepsFloatBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.Float64frombits(0x7ff8000000000123)
	e := &journalEntry{
		Op:       opInsert,
		ID:       7,
		Vertices: []geom.Vec3{{X: negZero, Y: nan, Z: 1}},
		Features: map[string][]float64{"principal-moments": {negZero, nan, math.Inf(-1)}},
	}
	got, err := decodeEntry(encodeEntry(nil, e))
	if err != nil {
		t.Fatal(err)
	}
	v := got.Vertices[0]
	if math.Float64bits(v.X) != math.Float64bits(negZero) || math.Float64bits(v.Y) != math.Float64bits(nan) {
		t.Fatalf("vertex bits changed: %v", v)
	}
	for i, x := range e.Features["principal-moments"] {
		if math.Float64bits(got.Features["principal-moments"][i]) != math.Float64bits(x) {
			t.Fatalf("feature coordinate %d bits changed", i)
		}
	}
}

// Gob drops a struct field equal to zero, so a vertex coordinate of -0.0
// came back from a gob frame as +0.0: the record changed across a reopen,
// and its content CRC no longer matched the one an export declared.
func TestNegativeZeroVertexSurvivesReopenAndExport(t *testing.T) {
	dir := t.TempDir()
	src, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	negZero := math.Copysign(0, -1)
	id, err := src.Insert("signed", 1, geom.Box(geom.V(negZero, 0, 0), geom.V(1, 1, 1)), fixedFeatures(src.Options(), 1))
	if err != nil {
		t.Fatal(err)
	}
	frames, err := src.ExportRecords([]int64{id})
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := Open(t.TempDir(), features.Options{})
	defer dst.Close()
	if _, err := dst.ImportFrames(frames); err != nil {
		t.Fatal(err)
	}
	src.Close()
	if src, err = Open(dir, features.Options{}); err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rec, _ := src.Get(id)
	if !math.Signbit(rec.Mesh.Vertices[0].X) {
		t.Fatal("reopen turned the -0.0 vertex coordinate into +0.0")
	}
}

func TestEntryEncodingDeterministic(t *testing.T) {
	opts := features.NewExtractor(features.Options{}).Options()
	rng := rand.New(rand.NewSource(2))
	rec := &Record{
		ID: 42, Name: "bracket", Group: 3,
		Mesh:     geom.Box(geom.V(0, 0, 0), geom.V(1, 2, 3)),
		Features: randomFeatures(opts, rng),
		Degraded: []string{"shape-distribution"},
		IdemKey:  "k", IdemIndex: 1, IdemCount: 2,
	}
	want := encodeFrame(entryOf(rec))
	for i := 0; i < 100; i++ {
		// entryOf rebuilds the feature map each time, so every pass
		// iterates it in a fresh random order.
		if got := encodeFrame(entryOf(rec)); !bytes.Equal(got, want) {
			t.Fatalf("pass %d encoded the same record differently", i)
		}
	}
}

func TestLegacyGobNeverStartsWithMagic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	entries := []*journalEntry{{}, {Op: opDelete, ID: 1}}
	for i := 0; i < 500; i++ {
		entries = append(entries, randomEntry(rng))
	}
	for i, e := range entries {
		if frame := legacyFrame(t, e); frame[8] == entryMagic {
			t.Fatalf("gob payload of entry %d starts with the binary format's magic byte", i)
		}
	}
}

func TestDecodeEntryRejectsMalformed(t *testing.T) {
	valid := encodeEntry(nil, &journalEntry{
		Op: opInsert, ID: 300, Name: "n",
		Vertices: []geom.Vec3{{X: 1}},
		Faces:    [][3]int{{0, 0, 0}},
		Features: map[string][]float64{"a": {1}, "b": {2}},
		Degraded: []string{"x"},
	})
	if _, err := decodeEntry(valid); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(valid); n++ {
		if _, err := decodeEntry(valid[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", n, len(valid))
		}
	}
	cases := map[string][]byte{
		"trailing byte": append(append([]byte(nil), valid...), 0),
		// id 300 is the two-byte varint d8 04; d8 84 00 is the same value
		// padded with a zero continuation.
		"non-minimal varint": append([]byte{entryMagic, byte(opInsert), 0xd8, 0x84, 0x00}, valid[4:]...),
		"unsorted features":  bytes.Replace(valid, []byte{1, 'a'}, []byte{1, 'c'}, 1),
		"repeated feature":   bytes.Replace(valid, []byte{1, 'b'}, []byte{1, 'a'}, 1),
	}
	for name, payload := range cases {
		if _, err := decodeEntry(payload); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// hugeVertexPayload is 20 bytes that claim 2^40 vertices.
func hugeVertexPayload() []byte {
	p := []byte{entryMagic, byte(opInsert), 2, 0, 0}
	p = binary.AppendUvarint(p, 1<<40)
	for len(p) < 20 {
		p = append(p, 0)
	}
	return p
}

func TestDecodeEntryBoundsAllocation(t *testing.T) {
	payload := hugeVertexPayload()
	// TotalAlloc is process-wide; the least of a few tries discounts
	// allocations by other goroutines.
	least := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeEntry(payload)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("a 20-byte payload claiming 2^40 vertices decoded")
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 1024 {
		t.Fatalf("rejecting it allocated %d bytes", least)
	}
}

// legacyFixture builds the records a legacy journal will hold, in an
// in-memory store: varied features, degraded flags and idempotency keys,
// and one record deleted at the end. It returns the store (the expected
// state) and the journal's entries in append order.
func legacyFixture(t *testing.T) (*DB, []*journalEntry) {
	t.Helper()
	src, err := Open("", features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 12; i++ {
		o := InsertOpts{}
		if i%3 == 1 {
			o.Degraded = []string{"eigenvalues"}
		}
		if i%4 == 2 {
			o.IdemKey, o.IdemIndex, o.IdemCount = "batch-"+string(rune('a'+i)), 0, 1
		}
		mesh := geom.Box(geom.V(0, 0, 0), geom.V(1+float64(i), 1, 2))
		if _, err := src.InsertWith("part", i%5, mesh, randomFeatures(src.Options(), rng), o); err != nil {
			t.Fatal(err)
		}
	}
	var entries []*journalEntry
	for _, id := range src.IDs() {
		rec, _ := src.Get(id)
		entries = append(entries, entryOf(rec))
	}
	if _, err := src.Delete(5); err != nil {
		t.Fatal(err)
	}
	entries = append(entries, &journalEntry{Op: opDelete, ID: 5})
	return src, entries
}

// journalBytes frames entries as legacy gob frames, or with every other
// frame in the binary format when interleaved is set.
func journalBytes(t *testing.T, entries []*journalEntry, interleaved bool) []byte {
	var out []byte
	for i, e := range entries {
		if interleaved && i%2 == 1 {
			out = append(out, encodeFrame(e)...)
		} else {
			out = append(out, legacyFrame(t, e)...)
		}
	}
	return out
}

func writeJournal(t *testing.T, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// requireSameRecords checks got holds exactly want's records, field by
// field, with equal content CRCs.
func requireSameRecords(t *testing.T, tag string, got, want *DB) {
	t.Helper()
	if !reflect.DeepEqual(got.IDs(), want.IDs()) {
		t.Fatalf("%s: ids %v, want %v", tag, got.IDs(), want.IDs())
	}
	for _, id := range want.IDs() {
		g, _ := got.Get(id)
		w, _ := want.Get(id)
		if g.Name != w.Name || g.Group != w.Group || g.IdemKey != w.IdemKey ||
			g.IdemIndex != w.IdemIndex || g.IdemCount != w.IdemCount ||
			!reflect.DeepEqual(g.Mesh, w.Mesh) || !reflect.DeepEqual(g.Features, w.Features) ||
			!reflect.DeepEqual(g.Degraded, w.Degraded) {
			t.Fatalf("%s: record %d = %+v, want %+v", tag, id, g, w)
		}
		if g.ContentCRC() != w.ContentCRC() {
			t.Fatalf("%s: record %d content CRC %08x, want %08x", tag, id, g.ContentCRC(), w.ContentCRC())
		}
	}
}

func TestLegacyJournalOpens(t *testing.T) {
	want, entries := legacyFixture(t)
	for _, interleaved := range []bool{false, true} {
		tag := map[bool]string{false: "legacy", true: "interleaved"}[interleaved]
		dir := writeJournal(t, journalBytes(t, entries, interleaved))
		db, err := Open(dir, features.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep := db.Recovery()
		if rep.Degraded() || rep.Entries != len(entries) || rep.Deletes != 1 {
			t.Fatalf("%s: recovery %+v", tag, rep)
		}
		requireSameRecords(t, tag, db, want)
		for _, id := range db.IDs() {
			if f := db.VerifyRecord(id); f.State != ScrubClean {
				t.Fatalf("%s: scrub of %d: %v %s", tag, id, f.State, f.Detail)
			}
		}
		db.Close()
	}
}

func TestLegacyFramesMigrateAndReplicate(t *testing.T) {
	want, entries := legacyFixture(t)
	chunk := journalBytes(t, entries, false)
	src, err := Open(writeJournal(t, chunk), features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	wantCRCs, _ := want.RecordCRCs(want.IDs())

	// ExportRecords ships the legacy frame bytes as they are.
	exported := exportAll(t, src)
	for _, ef := range exported {
		if ef.Frame[8] == entryMagic {
			t.Fatalf("export of %d re-encoded its legacy frame", ef.ID)
		}
		if ef.CRC != wantCRCs[ef.ID] {
			t.Fatalf("export of %d: CRC %08x, want %08x", ef.ID, ef.CRC, wantCRCs[ef.ID])
		}
	}
	dstDir := t.TempDir()
	dst, err := Open(dstDir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := dst.ImportFrames(exported); err != nil || n != len(exported) {
		t.Fatalf("import = %d, %v", n, err)
	}
	dst.Close()
	if dst, err = Open(dstDir, features.Options{}); err != nil {
		t.Fatal(err)
	}
	requireSameRecords(t, "import", dst, want)
	dst.Close()

	// A standby applies the legacy chunk verbatim.
	standbyDir := t.TempDir()
	standby, err := Open(standbyDir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if off, err := standby.ApplyReplicated(0, chunk); err != nil || off != int64(len(chunk)) {
		t.Fatalf("apply = %d, %v", off, err)
	}
	requireSameRecords(t, "replicate", standby, want)
	standby.Close()
	if onDisk, err := os.ReadFile(filepath.Join(standbyDir, journalName)); err != nil || !bytes.Equal(onDisk, chunk) {
		t.Fatalf("standby journal differs from the primary's chunk (%v)", err)
	}

	// A backup archive of legacy frames folds to the live set.
	replayed, err := ReplayExports(chunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(wantCRCs) {
		t.Fatalf("ReplayExports gave %d records, want %d", len(replayed), len(wantCRCs))
	}
	for _, ef := range replayed {
		if ef.CRC != wantCRCs[ef.ID] {
			t.Fatalf("replayed %d: CRC %08x, want %08x", ef.ID, ef.CRC, wantCRCs[ef.ID])
		}
	}
	restored, _ := Open("", features.Options{})
	if _, err := restored.ImportFrames(replayed); err != nil {
		t.Fatal(err)
	}
	requireSameRecords(t, "restore", restored, want)
}

func TestCompactRewritesLegacyFrames(t *testing.T) {
	want, entries := legacyFixture(t)
	dir := writeJournal(t, journalBytes(t, entries, true))
	db, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	frames, err := parseFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range frames {
		if data[fr.off+8] != entryMagic {
			t.Fatalf("compacted journal keeps a legacy frame at %d", fr.off)
		}
	}
	if db, err = Open(dir, features.Options{}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	requireSameRecords(t, "compacted", db, want)
}
