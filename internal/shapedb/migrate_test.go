package shapedb

import (
	"path/filepath"
	"strings"
	"testing"

	"threedess/internal/faultfs"
	"threedess/internal/features"
)

// Migration primitive tests: byte-exact export/import between stores,
// idempotent re-imports (what makes resumed copy batches safe), corrupt
// frames refused before any byte is applied, and the batched
// verification/drop helpers the rebalance driver calls.

func exportAll(t *testing.T, db *DB) []ExportFrame {
	t.Helper()
	frames, err := db.ExportRecords(db.IDs())
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

func TestExportImportRoundTrip(t *testing.T) {
	for _, srcDir := range []string{"", t.TempDir()} {
		src, err := Open(srcDir, features.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ids := []int64{
			testRecord(t, src, "gear", 1, 1),
			testRecord(t, src, "bracket", 2, 2),
			testRecord(t, src, "housing", 1, 3),
		}
		frames := exportAll(t, src)
		if len(frames) != 3 {
			t.Fatalf("exported %d frames, want 3", len(frames))
		}

		dstDir := t.TempDir()
		dst, err := Open(dstDir, features.Options{})
		if err != nil {
			t.Fatal(err)
		}
		added, err := dst.ImportFrames(frames)
		if err != nil || added != 3 {
			t.Fatalf("ImportFrames = %d, %v", added, err)
		}
		// Re-import of the identical batch is a no-op: that is what makes a
		// resumed copy batch safe to re-drive after a coordinator crash.
		added, err = dst.ImportFrames(frames)
		if err != nil || added != 0 {
			t.Fatalf("re-import = %d, %v; want 0, nil", added, err)
		}
		for _, id := range ids {
			a, ok1 := src.Get(id)
			b, ok2 := dst.Get(id)
			if !ok1 || !ok2 {
				t.Fatalf("id %d missing after import (src %v dst %v)", id, ok1, ok2)
			}
			if a.ContentCRC() != b.ContentCRC() {
				t.Fatalf("id %d content CRC diverged across the copy", id)
			}
			if a.Name != b.Name || a.Group != b.Group {
				t.Fatalf("id %d metadata diverged: %q/%d vs %q/%d", id, a.Name, a.Group, b.Name, b.Group)
			}
		}
		src.Close()
		dst.Close()

		// An acknowledged import must be as durable as an acknowledged
		// insert: reopen the destination and find every record.
		re, err := Open(dstDir, features.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if re.Len() != 3 {
			t.Fatalf("reopened destination holds %d records, want 3", re.Len())
		}
		re.Close()
	}
}

// A corrupt frame (or a lying content CRC) fails the whole batch before
// any record is applied — rot must not propagate between shards.
func TestImportRejectsCorruption(t *testing.T) {
	src, _ := Open("", features.Options{})
	defer src.Close()
	testRecord(t, src, "gear", 1, 1)
	testRecord(t, src, "cam", 2, 2)
	good := exportAll(t, src)

	bitflip := exportAll(t, src)
	bitflip[1].Frame = append([]byte(nil), bitflip[1].Frame...)
	bitflip[1].Frame[len(bitflip[1].Frame)-1] ^= 0x40

	badCRC := exportAll(t, src)
	badCRC[0].CRC ^= 0xdeadbeef

	wrongID := exportAll(t, src)
	wrongID[0].ID = 999

	for name, frames := range map[string][]ExportFrame{
		"bitflip": bitflip, "badCRC": badCRC, "wrongID": wrongID,
	} {
		dst, _ := Open("", features.Options{})
		if added, err := dst.ImportFrames(frames); err == nil {
			t.Errorf("%s: import succeeded (added %d)", name, added)
		} else if added != 0 || dst.Len() != 0 {
			t.Errorf("%s: partial apply: added %d, len %d", name, added, dst.Len())
		}
		dst.Close()
	}

	dst, _ := Open("", features.Options{})
	defer dst.Close()
	if added, err := dst.ImportFrames(good); err != nil || added != 2 {
		t.Fatalf("clean import after rejects = %d, %v", added, err)
	}
}

// ContentCRC compares records, not encodings: identical content hashes
// identically (whatever a legacy gob frame's map ordering did), any field
// change is visible.
func TestContentCRCDetectsChanges(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	id := testRecord(t, db, "gear", 1, 1)
	rec, _ := db.Get(id)
	base := rec.ContentCRC()
	if rec.ContentCRC() != base {
		t.Fatal("ContentCRC not deterministic")
	}
	mod := *rec
	mod.Name = "gear-v2"
	if mod.ContentCRC() == base {
		t.Error("name change invisible to ContentCRC")
	}
	mod = *rec
	mod.Group = 7
	if mod.ContentCRC() == base {
		t.Error("group change invisible to ContentCRC")
	}
}

func TestRecordCRCsReportsMissing(t *testing.T) {
	db, _ := Open("", features.Options{})
	defer db.Close()
	a := testRecord(t, db, "gear", 1, 1)
	b := testRecord(t, db, "cam", 2, 2)
	crcs, missing := db.RecordCRCs([]int64{a, 777, b, 888})
	if len(crcs) != 2 {
		t.Fatalf("got %d CRCs, want 2", len(crcs))
	}
	if len(missing) != 2 || missing[0] != 777 || missing[1] != 888 {
		t.Fatalf("missing = %v, want [777 888]", missing)
	}
}

func TestDeleteManyDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 6; i++ {
		ids = append(ids, testRecord(t, db, "part", i, float64(i)))
	}
	// Drop four (two of them twice over — a resumed drop re-submits ids
	// already gone) and keep two.
	drop := []int64{ids[0], ids[2], ids[0], 999, ids[4], ids[5]}
	n, err := db.DeleteMany(drop)
	if err != nil || n != 4 {
		t.Fatalf("DeleteMany = %d, %v; want 4", n, err)
	}
	if db.Len() != 2 {
		t.Fatalf("len %d after batch delete, want 2", db.Len())
	}
	db.Close()
	re, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("reopened store holds %d records, want 2", re.Len())
	}
	for _, id := range []int64{ids[1], ids[3]} {
		if _, ok := re.Get(id); !ok {
			t.Errorf("surviving id %d lost across reopen", id)
		}
	}
}

// A durable source whose on-disk frame rotted refuses to export it — the
// same checkFrame discipline as the scrubber.
func TestExportRefusesRottenFrame(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	id := testRecord(t, db, "gear", 1, 1)
	off, size, ok := db.FrameSpan(id)
	if !ok {
		t.Fatalf("FrameSpan(%d) missing", id)
	}
	if err := faultfs.FlipByte(filepath.Join(dir, journalName), off+8+size/2, 0x40); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExportRecords([]int64{id}); err == nil {
		t.Fatal("export shipped a rotten frame")
	} else if !strings.Contains(err.Error(), "unservable") {
		t.Fatalf("unexpected export error: %v", err)
	}
}
