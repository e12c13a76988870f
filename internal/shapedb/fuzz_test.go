package shapedb

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"threedess/internal/faultfs"
	"threedess/internal/features"
	"threedess/internal/geom"
)

// FuzzReplayJournal feeds arbitrary byte streams to the journal replayer
// and asserts it never panics, never reports inconsistent byte accounting,
// and only yields entries that passed the CRC gate (round-tripping a
// journal it wrote itself recovers every entry).
func FuzzReplayJournal(f *testing.F) {
	// Seed 1: a genuine two-entry journal.
	dir := f.TempDir()
	db, err := Open(dir, features.Options{})
	if err != nil {
		f.Fatal(err)
	}
	opts := db.Options()
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	for i := 0; i < 2; i++ {
		set := features.Set{}
		for _, k := range features.CoreKinds {
			v := make(features.Vector, opts.Dim(k))
			for d := range v {
				v[d] = float64(i + d)
			}
			set[k] = v
		}
		if _, err := db.Insert("fz", i, mesh, set); err != nil {
			f.Fatal(err)
		}
	}
	db.Close()
	valid, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// Seed 2: the same records in legacy gob frames, then both formats
	// in one journal.
	var legacy []byte
	for _, id := range []int64{1, 2} {
		rec, _ := db.Get(id)
		legacy = append(legacy, legacyFrame(f, entryOf(rec))...)
	}
	f.Add(legacy)
	f.Add(append(append([]byte(nil), legacy...), valid...))
	f.Add(valid[:len(valid)/2])    // torn tail
	f.Add(valid[3 : len(valid)-5]) // misaligned
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4})             // implausible length
	f.Add([]byte{8, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}) // bad CRC
	garbage := make([]byte, 300)
	for i := range garbage {
		garbage[i] = byte(i * 13)
	}
	f.Add(garbage)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), journalName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries := 0
		rep, err := replayJournal(faultfs.OS{}, path, func(e *journalEntry, off, size int64) error {
			entries++
			if e == nil {
				t.Fatal("replay yielded nil entry")
			}
			if off < 0 || size <= 8 || off+size > int64(len(data)) {
				t.Fatalf("replay yielded out-of-range frame [%d, %d+%d)", off, off, size)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("replay returned I/O error on in-memory-sized input: %v", err)
		}
		if rep.Entries != entries {
			t.Fatalf("report counts %d entries, callback saw %d", rep.Entries, entries)
		}
		if rep.TotalBytes != int64(len(data)) {
			t.Fatalf("TotalBytes = %d, want %d", rep.TotalBytes, len(data))
		}
		if rep.GoodBytes+rep.DiscardedBytes != rep.TotalBytes {
			t.Fatalf("byte accounting broken: good %d + discarded %d != total %d",
				rep.GoodBytes, rep.DiscardedBytes, rep.TotalBytes)
		}
		if rep.GoodBytes < 0 || rep.DiscardedBytes < 0 {
			t.Fatalf("negative byte counts: %+v", rep)
		}
		if rep.Entries > 0 && rep.GoodBytes < int64(rep.Entries)*9 {
			// Every frame is at least 8 header bytes + 1 payload byte
			// (decodeEntry rejects an empty payload).
			t.Fatalf("%d entries in %d good bytes", rep.Entries, rep.GoodBytes)
		}
		if (rep.Tail == TailClean) == (rep.DiscardedBytes != 0) {
			t.Fatalf("tail state %v inconsistent with %d discarded bytes", rep.Tail, rep.DiscardedBytes)
		}
		// Every intact frame the replayer accepted must re-verify: walk
		// the good prefix and check the CRC gate held.
		off := int64(0)
		for i := 0; i < rep.Entries; i++ {
			size := int64(binary.LittleEndian.Uint32(data[off:]))
			if off+8+size > rep.GoodBytes {
				t.Fatalf("entry %d frame exceeds good prefix", i)
			}
			off += 8 + size
		}
		if off != rep.GoodBytes {
			t.Fatalf("frames end at %d, good prefix %d", off, rep.GoodBytes)
		}
	})
}

// FuzzDecodeEntry feeds arbitrary payloads to the entry decoder. It must
// never panic; on a binary-format payload its allocation stays bounded by
// the payload length, however large the counts inside claim to be; and any
// binary-format payload it accepts re-encodes to the same bytes.
func FuzzDecodeEntry(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		e := randomEntry(rng)
		f.Add(encodeEntry(nil, e))
		f.Add(legacyFrame(f, e)[8:])
	}
	f.Add(hugeVertexPayload())
	f.Add([]byte{})
	f.Add([]byte{entryMagic})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := decodeEntry(data)
		runtime.ReadMemStats(&after)
		// Legacy gob payloads (no leading magic byte) are bounded by gob
		// itself. The largest binary expansion is a feature map entry: a
		// few payload bytes become a map slot and a string header.
		binaryFormat := len(data) > 0 && data[0] == entryMagic
		if grew := after.TotalAlloc - before.TotalAlloc; binaryFormat && grew > 64*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			if e != nil {
				t.Fatal("decodeEntry returned an entry with its error")
			}
			return
		}
		if !binaryFormat {
			return
		}
		if again := encodeEntry(nil, e); !bytes.Equal(again, data) {
			t.Fatalf("payload %x re-encodes to %x", data, again)
		}
	})
}
