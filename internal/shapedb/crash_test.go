package shapedb

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"threedess/internal/faultfs"
	"threedess/internal/features"
	"threedess/internal/geom"
)

// The crash matrix: run a scripted insert/delete/compact workload against
// an injecting filesystem, failing (ModeError) or crashing (ModeCrash) at
// every injectable operation in turn, then reopen the directory with the
// real filesystem and assert recovery is prefix-consistent:
//
//   - every operation that was acknowledged (returned nil — its sync
//     succeeded) is reflected in the recovered state;
//   - at most one un-acknowledged trailing operation may additionally be
//     reflected (its bytes reached the journal but its sync failed);
//   - nothing else: no garbage records, no lost acknowledged entries.

// crashOp is one acknowledged-or-attempted workload operation.
type crashOp struct {
	insert bool
	id     int64 // delete target, or assigned id for acked inserts
	name   string
	group  int
	base   float64
	acked  bool
}

// runCrashWorkload drives the scripted workload, recording per-op
// acknowledgement. It never fails the test on op errors — those are the
// point.
func runCrashWorkload(db *DB) []crashOp {
	opts := db.Options()
	var log []crashOp
	var live []int64
	insert := func(i int) {
		base := float64(i)
		mesh := geom.Box(geom.V(0, 0, 0), geom.V(1+base, 1, 1))
		op := crashOp{insert: true, name: "s", group: i, base: base}
		id, err := db.Insert("s", i, mesh, fixedFeatures(opts, base))
		if err == nil {
			op.acked, op.id = true, id
			live = append(live, id)
		}
		log = append(log, op)
	}
	remove := func() {
		if len(live) == 0 {
			return
		}
		victim := live[0]
		op := crashOp{insert: false, id: victim}
		if ok, err := db.Delete(victim); err == nil && ok {
			op.acked = true
			live = live[1:]
		}
		log = append(log, op)
	}
	for i := 0; i < 4; i++ {
		insert(i)
	}
	remove()
	db.Compact() // error ignored: a failed compact must be a logical no-op
	for i := 4; i < 7; i++ {
		insert(i)
	}
	remove()
	insert(7)
	return log
}

// ackedState folds the acknowledged ops into the expected live set.
func ackedState(log []crashOp) map[int64]crashOp {
	state := make(map[int64]crashOp)
	for _, op := range log {
		if !op.acked {
			continue
		}
		if op.insert {
			state[op.id] = op
		} else {
			delete(state, op.id)
		}
	}
	return state
}

// checkRecovered asserts the reopened DB matches the acknowledged state,
// tolerating the one trailing un-acknowledged op whose bytes may have
// reached the journal before its sync failed.
func checkRecovered(t *testing.T, tag string, re *DB, log []crashOp) {
	t.Helper()
	want := ackedState(log)
	// The first failed op is the only one whose effect may survive: a
	// later failure can only happen after the journal was poisoned or the
	// failure left no trace (failed appends roll back).
	var pending *crashOp
	for i := range log {
		if !log[i].acked {
			pending = &log[i]
			break
		}
	}
	for id, op := range want {
		rec, ok := re.Get(id)
		if !ok {
			if pending != nil && !pending.insert && pending.id == id {
				continue // the in-flight delete may have landed
			}
			t.Errorf("%s: acknowledged record %d lost", tag, id)
			continue
		}
		if rec.Name != op.name || rec.Group != op.group {
			t.Errorf("%s: record %d = (%q, %d), want (%q, %d)", tag, id, rec.Name, rec.Group, op.name, op.group)
		}
		pm := rec.Features[features.PrincipalMoments]
		if len(pm) == 0 || pm[0] != op.base {
			t.Errorf("%s: record %d features = %v, want base %v", tag, id, pm, op.base)
		}
	}
	for _, id := range re.IDs() {
		if _, ok := want[id]; ok {
			continue
		}
		// Not acknowledged: only the pending insert may explain it.
		if pending != nil && pending.insert {
			rec, _ := re.Get(id)
			if rec != nil && rec.Group == pending.group {
				continue
			}
		}
		t.Errorf("%s: recovered unexplained record %d", tag, id)
	}
}

// TestCrashMatrixWorkload is the tentpole test: every injectable fault
// point of the workload, in both failure modes, must recover to a
// prefix-consistent state.
func TestCrashMatrixWorkload(t *testing.T) {
	// Count the workload's fault points with an unarmed injector.
	counter := faultfs.NewInjector(faultfs.OS{})
	{
		dir := t.TempDir()
		db, err := OpenFS(dir, features.Options{}, counter)
		if err != nil {
			t.Fatal(err)
		}
		openOps := counter.Ops()
		runCrashWorkload(db)
		db.Close()
		if counter.Ops() == openOps {
			t.Fatal("workload performed no injectable operations")
		}
	}
	total := counter.Ops()
	step := int64(1)
	if testing.Short() {
		step = 5 // sample the matrix; CI's fault pass runs it in full
	}
	for _, mode := range []faultfs.Mode{faultfs.ModeError, faultfs.ModeCrash} {
		for n := int64(1); n <= total; n += step {
			dir := t.TempDir()
			inj := faultfs.NewInjector(faultfs.OS{})
			inj.FailAt, inj.Mode = n, mode
			db, err := OpenFS(dir, features.Options{}, inj)
			if err != nil {
				// The fault fired during open itself (e.g. the stale-temp
				// probe); nothing was written, nothing to check.
				continue
			}
			log := runCrashWorkload(db)
			db.Close()

			re, err := Open(dir, features.Options{})
			if err != nil {
				t.Fatalf("mode=%v fail-at=%d: reopen after fault: %v", mode, n, err)
			}
			checkRecovered(t, modeTag(mode, n), re, log)
			// The recovered store must remain fully writable.
			if _, err := re.Insert("post", 99, geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), fixedFeatures(re.Options(), 99)); err != nil {
				t.Errorf("%s: recovered DB refused insert: %v", modeTag(mode, n), err)
			}
			re.Close()
		}
	}
}

func modeTag(mode faultfs.Mode, n int64) string {
	m := "error"
	if mode == faultfs.ModeCrash {
		m = "crash"
	}
	return m + "@" + itoa(n)
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestCrashMatrixCompact focuses the matrix on compaction: whatever fault
// fires inside Compact, the live set afterwards (and after reopen) is
// exactly the live set before.
func TestCrashMatrixCompact(t *testing.T) {
	build := func(fsys faultfs.FS, dir string) (*DB, map[int64]float64) {
		db, err := OpenFS(dir, features.Options{}, fsys)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[int64]float64)
		var ids []int64
		for i := 0; i < 6; i++ {
			base := float64(i)
			mesh := geom.Box(geom.V(0, 0, 0), geom.V(1+base, 1, 1))
			id, err := db.Insert("c", i, mesh, fixedFeatures(db.Options(), base))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			want[id] = base
		}
		for _, id := range ids[:2] {
			if _, err := db.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(want, id)
		}
		return db, want
	}
	// Count compaction's fault points.
	counter := faultfs.NewInjector(faultfs.OS{})
	db, _ := build(counter, t.TempDir())
	pre := counter.Ops()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	compactOps := counter.Ops() - pre
	if compactOps < 4 {
		t.Fatalf("compaction has only %d fault points", compactOps)
	}
	for _, mode := range []faultfs.Mode{faultfs.ModeError, faultfs.ModeCrash} {
		for n := int64(1); n <= compactOps; n++ {
			dir := t.TempDir()
			inj := faultfs.NewInjector(faultfs.OS{})
			db, want := build(inj, dir)
			inj.FailAt, inj.Mode = inj.Ops()+n, mode
			err := db.Compact()
			if err == nil {
				t.Fatalf("%s: compaction succeeded with armed fault", modeTag(mode, n))
			}
			db.Close()

			re, rerr := Open(dir, features.Options{})
			if rerr != nil {
				t.Fatalf("%s: reopen after compaction fault: %v", modeTag(mode, n), rerr)
			}
			if re.Len() != len(want) {
				t.Errorf("%s: reopened Len = %d, want %d", modeTag(mode, n), re.Len(), len(want))
			}
			for id, base := range want {
				rec, ok := re.Get(id)
				if !ok {
					t.Errorf("%s: live record %d lost by failed compaction", modeTag(mode, n), id)
					continue
				}
				if pm := rec.Features[features.PrincipalMoments]; len(pm) == 0 || pm[0] != base {
					t.Errorf("%s: record %d features corrupted", modeTag(mode, n), id)
				}
			}
			// No stale temp file survives the reopen.
			if _, err := os.Stat(filepath.Join(dir, compactName)); !os.IsNotExist(err) {
				t.Errorf("%s: stale compaction temp not cleaned", modeTag(mode, n))
			}
			re.Close()
		}
	}
}

// journalOps parses the golden journal bytes into per-frame end offsets.
func frameEnds(t *testing.T, data []byte) []int64 {
	t.Helper()
	var ends []int64
	off := int64(0)
	for off+8 <= int64(len(data)) {
		size := int64(binary.LittleEndian.Uint32(data[off:]))
		if off+8+size > int64(len(data)) {
			t.Fatalf("golden journal has a torn frame at %d", off)
		}
		off += 8 + size
		ends = append(ends, off)
	}
	if off != int64(len(data)) {
		t.Fatalf("golden journal has %d trailing bytes", int64(len(data))-off)
	}
	return ends
}

// TestTornTailMatrix truncates a recorded journal at every byte offset and
// asserts recovery yields exactly the entries whose frames are complete,
// quarantines the rest, and leaves a journal that extends cleanly.
func TestTornTailMatrix(t *testing.T) {
	golden := t.TempDir()
	db, err := Open(golden, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 4; i++ {
		ids = append(ids, testRecord(t, db, "torn", i, float64(i)))
	}
	if _, err := db.Delete(ids[1]); err != nil {
		t.Fatal(err)
	}
	db.Close()
	data, err := os.ReadFile(filepath.Join(golden, journalName))
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, data)
	// liveAt[k] = expected live ids after replaying the first k frames.
	liveAt := make([][]int64, len(ends)+1)
	cur := []int64{}
	liveAt[0] = append([]int64(nil), cur...)
	for k := 1; k <= len(ends); k++ {
		switch {
		case k <= 4: // frames 1..4 are the inserts
			cur = append(cur, ids[k-1])
		default: // frame 5 is the delete of ids[1]
			tmp := cur[:0]
			for _, id := range cur {
				if id != ids[1] {
					tmp = append(tmp, id)
				}
			}
			cur = tmp
		}
		liveAt[k] = append([]int64(nil), cur...)
	}
	step := 1
	if testing.Short() {
		step = 23
	}
	for cut := 0; cut <= len(data); cut += step {
		dir := t.TempDir()
		path := filepath.Join(dir, journalName)
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, features.Options{})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		frames := 0
		for _, e := range ends {
			if e <= int64(cut) {
				frames++
			}
		}
		good := int64(0)
		if frames > 0 {
			good = ends[frames-1]
		}
		rep := re.Recovery()
		if rep == nil {
			t.Fatalf("cut=%d: no recovery report", cut)
		}
		if rep.Entries != frames {
			t.Errorf("cut=%d: replayed %d entries, want %d", cut, rep.Entries, frames)
		}
		if rep.GoodBytes != good || rep.TotalBytes != int64(cut) || rep.DiscardedBytes != int64(cut)-good {
			t.Errorf("cut=%d: report bytes good=%d total=%d discarded=%d, want %d/%d/%d",
				cut, rep.GoodBytes, rep.TotalBytes, rep.DiscardedBytes, good, cut, int64(cut)-good)
		}
		if rep.Degraded() != (int64(cut) > good) {
			t.Errorf("cut=%d: Degraded = %v", cut, rep.Degraded())
		}
		if rep.Degraded() && !rep.TornTail {
			t.Errorf("cut=%d: truncation misclassified as %v (not torn tail)", cut, rep.Tail)
		}
		want := liveAt[frames]
		if re.Len() != len(want) {
			t.Errorf("cut=%d: Len = %d, want %d", cut, re.Len(), len(want))
		}
		for _, id := range want {
			if _, ok := re.Get(id); !ok {
				t.Errorf("cut=%d: record %d missing", cut, id)
			}
		}
		// Quarantine holds exactly the discarded bytes.
		qdata, qerr := os.ReadFile(filepath.Join(dir, corruptName))
		if rep.Degraded() {
			if qerr != nil {
				t.Errorf("cut=%d: no quarantine file: %v", cut, qerr)
			} else if !bytes.Equal(qdata, data[good:cut]) {
				t.Errorf("cut=%d: quarantine holds %d bytes, want %d", cut, len(qdata), cut-int(good))
			}
			if rep.Quarantined == "" {
				t.Errorf("cut=%d: report missing quarantine path", cut)
			}
		} else if qerr == nil {
			t.Errorf("cut=%d: unexpected quarantine file", cut)
		}
		// The truncated journal extends cleanly: insert, reopen, verify.
		nid, err := re.Insert("after", 77, geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), fixedFeatures(re.Options(), 77))
		if err != nil {
			t.Fatalf("cut=%d: insert after recovery: %v", cut, err)
		}
		re.Close()
		re2, err := Open(dir, features.Options{})
		if err != nil {
			t.Fatalf("cut=%d: second reopen: %v", cut, err)
		}
		if rep2 := re2.Recovery(); rep2.Degraded() {
			t.Errorf("cut=%d: second open still degraded: %v", cut, rep2)
		}
		if _, ok := re2.Get(nid); !ok {
			t.Errorf("cut=%d: post-recovery insert lost on reopen", cut)
		}
		if re2.Len() != len(want)+1 {
			t.Errorf("cut=%d: reopened Len = %d, want %d", cut, re2.Len(), len(want)+1)
		}
		re2.Close()
	}
}

// TestRecoveryReportMidFileCorruption flips a byte inside an early frame
// and asserts the report distinguishes it from a torn tail.
func TestRecoveryReportMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		testRecord(t, db, "mid", i, float64(i))
	}
	db.Close()
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, data)
	if len(ends) != 3 {
		t.Fatalf("expected 3 frames, got %d", len(ends))
	}
	// Corrupt the middle of frame 2's payload.
	data[ends[0]+8+(ends[1]-ends[0])/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, features.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rep := re.Recovery()
	if rep.Entries != 1 || re.Len() != 1 {
		t.Errorf("recovered %d entries / Len %d, want 1/1", rep.Entries, re.Len())
	}
	if rep.Tail != TailBadChecksum {
		t.Errorf("Tail = %v, want bad checksum", rep.Tail)
	}
	if rep.TornTail {
		t.Error("mid-file corruption classified as torn tail")
	}
	if rep.DiscardedBytes != int64(len(data))-ends[0] {
		t.Errorf("DiscardedBytes = %d, want %d", rep.DiscardedBytes, int64(len(data))-ends[0])
	}
}

// blockingRenameFS stalls Rename until released, keeping a compaction
// in-flight long enough for a second call to race it.
type blockingRenameFS struct {
	faultfs.FS
	entered chan struct{}
	release chan struct{}
}

func (b *blockingRenameFS) Rename(oldpath, newpath string) error {
	b.entered <- struct{}{}
	<-b.release
	return b.FS.Rename(oldpath, newpath)
}

func TestCompactConcurrentInvocationGuard(t *testing.T) {
	// entered is buffered so renames after the choreographed one (the
	// final sanity compaction below) pass straight through; release is
	// closed once, and a closed channel never blocks receivers.
	bfs := &blockingRenameFS{
		FS:      faultfs.OS{},
		entered: make(chan struct{}, 4),
		release: make(chan struct{}),
	}
	db, err := OpenFS(t.TempDir(), features.Options{}, bfs)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var ids []int64
	for i := 0; i < 6; i++ {
		ids = append(ids, testRecord(t, db, "g", 0, float64(i)))
	}
	for _, id := range ids[:3] {
		if _, err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	first := make(chan error, 1)
	go func() { first <- db.Compact() }()
	<-bfs.entered // first compaction is mid-rename, still holding the guard
	// The racing call must return the sentinel immediately — it cannot
	// block on db.mu (the first holds it) because the guard is checked
	// before the lock.
	if err := db.Compact(); err != ErrCompactionInProgress {
		t.Fatalf("racing Compact returned %v, want ErrCompactionInProgress", err)
	}
	close(bfs.release)
	if err := <-first; err != nil {
		t.Fatalf("first Compact failed: %v", err)
	}
	// Guard released: a later compaction succeeds.
	if err := db.Compact(); err != nil {
		t.Fatalf("post-race Compact failed: %v", err)
	}
	st := db.Stats()
	if st.LiveRecords != 3 || st.DeadEntries != 0 {
		t.Fatalf("post-compaction stats: %+v", st)
	}
}
