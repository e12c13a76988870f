package shapedb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"threedess/internal/geom"
)

// Migration primitives for live shard rebalancing (DESIGN.md §14): a
// source shard exports moved records as framed journal bytes, the
// destination imports them through the same validate-everything-first
// discipline as replication, both sides answer content CRCs so the
// migration driver can verify the copy record-by-record, and — only
// after cutover is acked fleet-wide — the source drops the moved
// records in one journaled batch.

// ExportFrame is one record shipped between shards: the exact framed
// journal bytes ([4B length][4B CRC32][payload]) the record is
// durable under on the source, plus the canonical content CRC used for
// post-copy verification. Shipping the source's own frame bytes means
// the destination persists precisely what the source acknowledged —
// there is no re-encode step that could silently alter a record in
// transit.
type ExportFrame struct {
	ID    int64  `json:"id"`
	Frame []byte `json:"frame"` // base64 over JSON
	CRC   uint32 `json:"crc"`
}

// ContentCRC is the canonical content checksum of one record: a CRC32
// over a deterministic serialization of every journaled field. It is
// deliberately NOT a checksum of the frame bytes: a record can be held in
// a legacy gob frame, and gob encodes map fields in nondeterministic
// order, so two byte-different frames can hold the identical record, and
// migration verification must compare records, not encodings.
func (rec *Record) ContentCRC() uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	putI := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putF := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	putS := func(s string) {
		putI(int64(len(s)))
		h.Write([]byte(s))
	}
	putI(rec.ID)
	putS(rec.Name)
	putI(int64(rec.Group))
	putI(int64(len(rec.Mesh.Vertices)))
	for _, v := range rec.Mesh.Vertices {
		putF(v.X)
		putF(v.Y)
		putF(v.Z)
	}
	putI(int64(len(rec.Mesh.Faces)))
	for _, f := range rec.Mesh.Faces {
		putI(int64(f[0]))
		putI(int64(f[1]))
		putI(int64(f[2]))
	}
	names := make([]string, 0, len(rec.Features))
	for k := range rec.Features {
		names = append(names, k.String())
	}
	sort.Strings(names)
	putI(int64(len(names)))
	for _, name := range names {
		putS(name)
		var vec []float64
		for k, v := range rec.Features {
			if k.String() == name {
				vec = v
				break
			}
		}
		putI(int64(len(vec)))
		for _, x := range vec {
			putF(x)
		}
	}
	degraded := append([]string(nil), rec.Degraded...)
	sort.Strings(degraded)
	putI(int64(len(degraded)))
	for _, d := range degraded {
		putS(d)
	}
	putS(rec.IdemKey)
	putI(int64(rec.IdemIndex))
	putI(int64(rec.IdemCount))
	return h.Sum32()
}

// ExportRecords ships the given records for migration. For a durable
// store each record's exact on-disk journal frame is re-read and
// re-verified (CRC + full content agreement with memory, exactly the
// scrubber's check) before it is shipped, so a rotten frame fails the
// export instead of propagating; an in-memory store frames the record
// fresh. Unknown ids are skipped — the migration driver enumerates ids
// and exports them in separate steps, and a record deleted in between
// simply no longer needs to move.
func (db *DB) ExportRecords(ids []int64) ([]ExportFrame, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]ExportFrame, 0, len(ids))
	for _, id := range ids {
		rec, ok := db.records[id]
		if !ok {
			continue
		}
		var frame []byte
		if db.journal != nil {
			ref, ok := db.frames[id]
			if !ok {
				return nil, fmt.Errorf("shapedb: exporting %d: no journal frame recorded", id)
			}
			var err error
			if frame, err = db.readFrame(ref); err != nil {
				return nil, fmt.Errorf("shapedb: exporting %d: %w", id, err)
			}
			if state, detail := checkFrame(frame, rec); state != ScrubClean {
				return nil, fmt.Errorf("shapedb: exporting %d: frame unservable (%v): %s", id, state, detail)
			}
		} else {
			frame = encodeFrame(entryOf(rec))
		}
		out = append(out, ExportFrame{ID: id, Frame: frame, CRC: rec.ContentCRC()})
	}
	return out, nil
}

// ImportFrames lands exported records on a destination shard. The whole
// batch is validated before any byte is applied: every frame must parse
// (header, CRC, decodable insert entry matching its declared id), its
// features must satisfy the local options, and the decoded record must
// reproduce the declared content CRC. Records whose id already exists
// locally are skipped, which is what makes a re-driven copy batch
// idempotent — a migration resumed after a crash re-imports the same
// range and only the missing tail lands. Durable stores append all new
// frames verbatim and fsync once before applying, so an acknowledged
// import is as durable as an acknowledged insert. Returns how many
// records were added (skips excluded).
func (db *DB) ImportFrames(frames []ExportFrame) (int, error) {
	type staged struct {
		ef    ExportFrame
		rec   *Record
		frame parsedFrame
	}
	stage := make([]staged, 0, len(frames))
	for i, ef := range frames {
		parsed, err := parseFrames(ef.Frame)
		if err != nil {
			return 0, fmt.Errorf("shapedb: import frame %d: %w", i, err)
		}
		if len(parsed) != 1 {
			return 0, fmt.Errorf("shapedb: import frame %d holds %d journal frames, want 1", i, len(parsed))
		}
		e := parsed[0].entry
		if e.Op != opInsert || e.ID != ef.ID {
			return 0, fmt.Errorf("shapedb: import frame %d holds op=%d id=%d, want insert of %d", i, e.Op, e.ID, ef.ID)
		}
		set, err := decodeFeatures(e.Features)
		if err != nil {
			return 0, fmt.Errorf("shapedb: import record %d: %w", ef.ID, err)
		}
		if err := checkFeatures(db.opts, set); err != nil {
			return 0, fmt.Errorf("shapedb: import record %d incompatible with local options: %w", ef.ID, err)
		}
		rec := &Record{
			ID: e.ID, Name: e.Name, Group: e.Group,
			Mesh:     &geom.Mesh{Vertices: e.Vertices, Faces: e.Faces},
			Features: set, Degraded: e.Degraded,
			IdemKey: e.IdemKey, IdemIndex: e.IdemIdx, IdemCount: e.IdemCnt,
		}
		if got := rec.ContentCRC(); got != ef.CRC {
			return 0, fmt.Errorf("shapedb: import record %d content CRC %08x, declared %08x", ef.ID, got, ef.CRC)
		}
		stage = append(stage, staged{ef: ef, rec: rec, frame: parsed[0]})
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if db.fenced != nil {
		return 0, db.fenced
	}
	fresh := stage[:0]
	for _, s := range stage {
		if _, exists := db.records[s.ef.ID]; !exists {
			fresh = append(fresh, s)
		}
	}
	if len(fresh) == 0 {
		return 0, nil
	}
	if db.journal != nil {
		if db.journal.failed != nil {
			return 0, db.journal.failed
		}
		var chunk bytes.Buffer
		for _, s := range fresh {
			chunk.Write(s.ef.Frame)
		}
		base := db.journal.off
		if err := db.journal.appendRaw(chunk.Bytes()); err != nil {
			return 0, db.fenceLocked(err)
		}
		if err := db.journal.commitFrom(base); err != nil {
			return 0, db.fenceLocked(err)
		}
		off := base
		for _, s := range fresh {
			db.entryCount++
			db.applyInsert(s.rec)
			db.setFrame(s.rec.ID, frameRef{off: off, size: int64(len(s.ef.Frame))})
			off += int64(len(s.ef.Frame))
		}
	} else {
		for _, s := range fresh {
			db.applyInsert(s.rec)
		}
	}
	db.wakeCommitWaiters()
	return len(fresh), nil
}

// ReplayExports folds a stream of raw journal frames (inserts and
// deletes, as produced by ReadJournal or a verified backup archive) down
// to the surviving live record set and re-emits each survivor as an
// ExportFrame: the exact original frame bytes plus the canonical content
// CRC. It is the bridge from a node backup to the ring/migration copy
// path — restore reads a shard's archived journal, folds it here, and
// lands the survivors on their new owners via ImportFrames, which is how
// an N-shard backup restores onto an M-shard cluster.
func ReplayExports(chunk []byte) ([]ExportFrame, error) {
	frames, err := parseFrames(chunk)
	if err != nil {
		return nil, err
	}
	live := make(map[int64]parsedFrame)
	for _, fr := range frames {
		switch fr.entry.Op {
		case opInsert:
			live[fr.entry.ID] = fr
		case opDelete:
			delete(live, fr.entry.ID)
		default:
			return nil, fmt.Errorf("shapedb: replay frame at %d holds unknown op %d", fr.off, fr.entry.Op)
		}
	}
	ids := make([]int64, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]ExportFrame, 0, len(ids))
	for _, id := range ids {
		fr := live[id]
		e := fr.entry
		set, err := decodeFeatures(e.Features)
		if err != nil {
			return nil, fmt.Errorf("shapedb: replaying record %d: %w", id, err)
		}
		rec := &Record{
			ID: e.ID, Name: e.Name, Group: e.Group,
			Mesh:     &geom.Mesh{Vertices: e.Vertices, Faces: e.Faces},
			Features: set, Degraded: e.Degraded,
			IdemKey: e.IdemKey, IdemIndex: e.IdemIdx, IdemCount: e.IdemCnt,
		}
		frame := append([]byte(nil), chunk[fr.off:fr.off+fr.size]...)
		out = append(out, ExportFrame{ID: id, Frame: frame, CRC: rec.ContentCRC()})
	}
	return out, nil
}

// RecordCRCs answers the verification round: for each requested id, the
// record's canonical content CRC, with missing ids reported separately
// (a record can legitimately vanish between enumeration and
// verification only via deletion — the driver re-checks those).
func (db *DB) RecordCRCs(ids []int64) (crcs map[int64]uint32, missing []int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	crcs = make(map[int64]uint32, len(ids))
	for _, id := range ids {
		if rec, ok := db.records[id]; ok {
			crcs[id] = rec.ContentCRC()
		} else {
			missing = append(missing, id)
		}
	}
	return crcs, missing
}

// DeleteMany removes a batch of records under one lock hold with one
// final fsync — the post-cutover drop of moved records, where a
// per-record Delete would pay thousands of syncs. Unknown ids are
// skipped (a resumed drop re-submits ids already gone). Returns how
// many records were deleted.
func (db *DB) DeleteMany(ids []int64) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.fenced != nil {
		return 0, db.fenced
	}
	base := int64(0)
	if db.journal != nil {
		base = db.journal.off
	}
	dropped := 0
	for _, id := range ids {
		if _, ok := db.records[id]; !ok {
			continue
		}
		if db.journal != nil {
			if err := db.journal.append(&journalEntry{Op: opDelete, ID: id}); err != nil {
				// The failed append was rolled back but earlier deletes of
				// this batch are already applied unsynced; fall through to
				// commitFrom, which either makes them durable or rolls the
				// whole batch's bytes back under the fence.
				db.fenceLocked(err)
				break
			}
			db.entryCount++
		}
		db.applyDelete(id)
		dropped++
	}
	if db.journal != nil && (dropped > 0 || db.fenced != nil) {
		if err := db.journal.commitFrom(base); err != nil {
			return dropped, db.fenceLocked(err)
		}
	}
	if db.fenced != nil {
		return dropped, db.fenced
	}
	if dropped > 0 {
		db.wakeCommitWaiters()
	}
	return dropped, nil
}
