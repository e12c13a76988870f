package shapedb

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"threedess/internal/geom"
)

// The journal payload format. Every payload encodeEntry writes is
//
//	magic    0x00
//	op       1 byte
//	id       varint
//	name     string
//	group    varint
//	vertices uvarint n, then n × (x, y, z) as little-endian float64 bits
//	faces    uvarint n, then n × 3 varints
//	features uvarint n, then n × (name string, uvarint m, m × float64 bits),
//	         names in strictly ascending byte order
//	degraded uvarint n, then n strings
//	idemKey  string
//	idemIdx  varint
//	idemCnt  varint
//
// where a string is a uvarint byte length followed by the bytes, and every
// varint is Go's encoding/binary form at its minimal length. Sorting the
// feature names makes the encoding deterministic: one record always gives
// the same bytes. Journals written before this format hold gob payloads; a
// gob stream opens with its first message's length, which is never zero,
// so the leading 0x00 tells the two apart and decodeEntry still reads the
// old frames.
const entryMagic = 0x00

// encodeEntry appends e's binary payload to dst and returns the extended
// slice.
func encodeEntry(dst []byte, e *journalEntry) []byte {
	names := make([]string, 0, len(e.Features))
	for name := range e.Features {
		names = append(names, name)
	}
	sort.Strings(names)

	dst = append(dst, entryMagic, byte(e.Op))
	dst = binary.AppendVarint(dst, e.ID)
	dst = appendString(dst, e.Name)
	dst = binary.AppendVarint(dst, int64(e.Group))
	dst = binary.AppendUvarint(dst, uint64(len(e.Vertices)))
	for _, v := range e.Vertices {
		dst = appendFloat(dst, v.X)
		dst = appendFloat(dst, v.Y)
		dst = appendFloat(dst, v.Z)
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.Faces)))
	for _, f := range e.Faces {
		dst = binary.AppendVarint(dst, int64(f[0]))
		dst = binary.AppendVarint(dst, int64(f[1]))
		dst = binary.AppendVarint(dst, int64(f[2]))
	}
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		vec := e.Features[name]
		dst = appendString(dst, name)
		dst = binary.AppendUvarint(dst, uint64(len(vec)))
		for _, x := range vec {
			dst = appendFloat(dst, x)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.Degraded)))
	for _, d := range e.Degraded {
		dst = appendString(dst, d)
	}
	dst = appendString(dst, e.IdemKey)
	dst = binary.AppendVarint(dst, int64(e.IdemIdx))
	return binary.AppendVarint(dst, int64(e.IdemCnt))
}

// encodeFrame renders a journal entry as framed bytes without touching
// any file: journal.append writes them, and the in-memory store's export
// path ships them.
func encodeFrame(e *journalEntry) []byte {
	// 512 bytes hold a descriptor-only record's frame without regrowing.
	frame := encodeEntry(make([]byte, 8, 512), e)
	payload := frame[8:]
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	return frame
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat(dst []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
}

// decodeEntry decodes one journal payload: the binary format above, or a
// gob payload written before it. Payloads arrive from peers, imports and
// backup archives, so the binary decoder checks every count against the
// bytes that remain before it allocates, and rejects non-minimal varints,
// unsorted or repeated feature names and trailing bytes — any payload it
// accepts re-encodes to the same bytes. Empty slices and maps decode as
// nil, as they do from gob.
func decodeEntry(payload []byte) (*journalEntry, error) {
	if len(payload) == 0 {
		return nil, errors.New("empty journal payload")
	}
	if payload[0] != entryMagic {
		var e journalEntry
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&e); err != nil {
			return nil, err
		}
		return &e, nil
	}
	r := entryReader{b: payload[1:]}
	e := &journalEntry{Op: journalOp(r.byte())}
	e.ID = r.varint()
	e.Name = r.string()
	e.Group = r.int()
	if n := r.count(24); n > 0 {
		e.Vertices = make([]geom.Vec3, n)
		for i := range e.Vertices {
			e.Vertices[i] = geom.Vec3{X: r.float(), Y: r.float(), Z: r.float()}
		}
	}
	if n := r.count(3); n > 0 {
		e.Faces = make([][3]int, n)
		for i := range e.Faces {
			e.Faces[i] = [3]int{r.int(), r.int(), r.int()}
		}
	}
	if n := r.count(2); n > 0 {
		e.Features = make(map[string][]float64, n)
		prev := ""
		for i := 0; i < n && r.err == nil; i++ {
			name := r.string()
			if i > 0 && name <= prev {
				r.fail("feature name %q follows %q", name, prev)
			}
			prev = name
			var vec []float64
			if m := r.count(8); m > 0 {
				vec = make([]float64, m)
				for j := range vec {
					vec[j] = r.float()
				}
			}
			e.Features[name] = vec
		}
	}
	if n := r.count(1); n > 0 {
		e.Degraded = make([]string, n)
		for i := range e.Degraded {
			e.Degraded[i] = r.string()
		}
	}
	e.IdemKey = r.string()
	e.IdemIdx = r.int()
	e.IdemCnt = r.int()
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return e, nil
}

// entryReader consumes a binary payload. The first error sticks: every
// later read returns a zero value, so decodeEntry checks err once at the
// end, and a zero count keeps it from allocating after a failure.
type entryReader struct {
	b   []byte
	err error
}

func (r *entryReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("journal payload: "+format, args...)
	}
	r.b = nil
}

func (r *entryReader) byte() byte {
	if len(r.b) < 1 {
		r.fail("truncated")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *entryReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	if n > 1 && r.b[n-1] == 0 {
		r.fail("non-minimal varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *entryReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *entryReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// count reads an item count and checks that the remaining bytes can hold
// that many items of at least minSize bytes each.
func (r *entryReader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.fail("claims %d items of ≥%d bytes in %d bytes", n, minSize, len(r.b))
		return 0
	}
	return int(n)
}

func (r *entryReader) string() string {
	n := r.count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *entryReader) float() float64 {
	if len(r.b) < 8 {
		r.fail("truncated")
		return 0
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return x
}
