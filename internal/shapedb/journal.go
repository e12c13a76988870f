package shapedb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"threedess/internal/faultfs"
	"threedess/internal/features"
	"threedess/internal/geom"
)

// The journal is the durability substrate standing in for the paper's
// Oracle 8i record store: an append-only log of insert/delete operations,
// each framed as [4-byte length][4-byte CRC32][payload]; the payload
// format is in codec.go (older journals hold gob payloads, which still
// decode). Replay rebuilds the store; a torn or corrupt tail (from a crash
// mid-append) is detected by the checksum, quarantined, and truncated
// away, so recovery never reads garbage and new appends never land after
// it. All file operations go through a faultfs.FS so the crash-matrix
// tests can fail or tear any of them deterministically.

type journalOp byte

const (
	opInsert journalOp = 1
	opDelete journalOp = 2
)

// maxFrame caps a frame header's claimed payload length. A length beyond
// it cannot come from a real append and marks the frame as garbage rather
// than a torn tail.
const maxFrame = 1 << 30

// journalEntry is the decoded payload of one journal record. Its field
// names are also the legacy gob payload's wire names, so they must not
// change.
type journalEntry struct {
	Op    journalOp
	ID    int64
	Name  string
	Group int
	// Mesh geometry, flattened.
	Vertices []geom.Vec3
	Faces    [][3]int
	// Features keyed by the stable string names.
	Features map[string][]float64
	// Degraded lists feature kinds skipped by per-kind extraction
	// degradation (stable names). Absent in pre-degradation journals,
	// which decode it as nil.
	Degraded []string
	// Idempotency attribution (see Record): the client key this insert was
	// made under and its position/size within that key's batch. Absent in
	// older journals, which decode them as zero values.
	IdemKey string
	IdemIdx int
	IdemCnt int
}

func encodeFeatures(set features.Set) map[string][]float64 {
	out := make(map[string][]float64, len(set))
	for k, v := range set {
		out[k.String()] = append([]float64(nil), v...)
	}
	return out
}

func decodeFeatures(raw map[string][]float64) (features.Set, error) {
	out := make(features.Set, len(raw))
	for name, v := range raw {
		k, err := features.ParseKind(name)
		if err != nil {
			return nil, err
		}
		out[k] = append(features.Vector(nil), v...)
	}
	return out, nil
}

type journal struct {
	fsys faultfs.FS
	f    faultfs.File
	// off is the end of the last fully-written frame. A failed append
	// rolls the file back to it so the next frame never lands after a
	// torn one.
	off int64
	// failed poisons the journal after an unrecoverable write/sync error
	// (fail-stop: after a failed fsync the page cache can no longer be
	// trusted, so further appends would risk acknowledging lost data).
	failed error
}

// openJournal opens (or creates) a journal for appending.
func openJournal(fsys faultfs.FS, path string) (*journal, error) {
	return openJournalFlags(fsys, path, os.O_CREATE|os.O_RDWR)
}

// newJournal creates an empty journal, truncating any previous file —
// used for the compaction temp file, whose leftovers must not survive.
func newJournal(fsys faultfs.FS, path string) (*journal, error) {
	return openJournalFlags(fsys, path, os.O_CREATE|os.O_RDWR|os.O_TRUNC)
}

func openJournalFlags(fsys faultfs.FS, path string, flags int) (*journal, error) {
	f, err := fsys.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	// Position at the end for appends; replay reads from the start via a
	// separate descriptor in replayJournal.
	off, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &journal{fsys: fsys, f: f, off: off}, nil
}

// poisonedJournal returns a journal that refuses every operation with err.
// It keeps a durable DB from silently degrading to in-memory mode when the
// real journal could not be (re)opened.
func poisonedJournal(err error) *journal {
	return &journal{failed: fmt.Errorf("shapedb: journal unavailable: %w", err)}
}

// append frames and persists one entry. On a write error it rolls the file
// back to the last good frame boundary; if even that fails, the journal is
// poisoned and every later operation returns the poisoning error.
func (j *journal) append(e *journalEntry) error {
	return j.appendRaw(encodeFrame(e))
}

// appendRaw persists pre-framed bytes exactly as given. Replication and
// import call it directly, so a standby ends up with a byte-identical
// journal: re-encoding a legacy gob frame would change its bytes and break
// the byte-for-byte equivalence the replication protocol's offsets are
// defined over. A write error rolls the file back to the last good frame
// boundary; a failed rollback poisons the journal.
func (j *journal) appendRaw(frames []byte) error {
	if j.failed != nil {
		return j.failed
	}
	n, err := j.f.Write(frames)
	if err == nil && n < len(frames) {
		err = io.ErrShortWrite
	}
	if err != nil {
		if rerr := j.rollback(); rerr != nil {
			j.failed = fmt.Errorf("shapedb: journal append failed (%v) and rollback failed: %w", err, rerr)
		}
		return fmt.Errorf("shapedb: appending journal frames: %w", err)
	}
	j.off += int64(len(frames))
	return nil
}

// rollback truncates the file back to the last good frame boundary and
// repositions the write offset there.
func (j *journal) rollback() error {
	if err := j.f.Truncate(j.off); err != nil {
		return err
	}
	_, err := j.f.Seek(j.off, io.SeekStart)
	return err
}

// commitFrom syncs everything appended since prevOff. On a sync failure
// the unsynced suffix is rolled back to prevOff — every earlier frame was
// covered by its own successful fsync, so truncating away only the new,
// never-acknowledged bytes leaves the file coherent at the last
// acknowledged boundary, and the journal stays fully usable for reads,
// replication, and backup. The journal is poisoned only when the rollback
// itself fails, because then no boundary can be trusted anymore.
func (j *journal) commitFrom(prevOff int64) error {
	if j.failed != nil {
		return j.failed
	}
	err := j.f.Sync()
	if err == nil {
		return nil
	}
	j.off = prevOff
	if rerr := j.rollback(); rerr != nil {
		j.failed = fmt.Errorf("shapedb: journal sync failed (%v) and rollback failed: %w", err, rerr)
		return j.failed
	}
	return fmt.Errorf("shapedb: journal sync failed: %w", err)
}

// sync flushes the journal to stable storage. A sync failure poisons the
// journal: the kernel may have dropped the dirty pages, so nothing after
// this point can be promised durable. Write paths that can roll the
// unsynced suffix back use commitFrom instead, which degrades to a
// read-only fence rather than fail-stop.
func (j *journal) sync() error {
	if j.failed != nil {
		return j.failed
	}
	if err := j.f.Sync(); err != nil {
		j.failed = fmt.Errorf("shapedb: journal sync failed, journal disabled: %w", err)
		return j.failed
	}
	return nil
}

func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}

// replayJournal reads every intact entry from the journal file, calling fn
// for each with the frame's file offset and full framed size (header +
// payload), and returns a report of what it found: how many entries were
// replayed, how many bytes of trailing garbage follow the intact prefix,
// and how the garbage was classified (torn tail from a crash mid-append
// vs. corruption with further data behind it). A missing file yields an
// empty report. The error is non-nil only for I/O failures or an fn error
// — corruption itself never fails recovery, it is reported.
func replayJournal(fsys faultfs.FS, path string, fn func(e *journalEntry, off, size int64) error) (*RecoveryReport, error) {
	rep := &RecoveryReport{}
	f, err := fsys.Open(path)
	if os.IsNotExist(err) {
		return rep, nil
	}
	if err != nil {
		return rep, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return rep, err
	}
	rep.TotalBytes = fi.Size()
	br := bufio.NewReaderSize(f, 64<<10)
	var payload []byte
	for {
		var header [8]byte
		_, err := io.ReadFull(br, header[:])
		if err == io.EOF {
			rep.finish(TailClean, 0)
			return rep, nil
		}
		if err != nil {
			if err == io.ErrUnexpectedEOF {
				rep.finish(TailTornHeader, 0)
				return rep, nil
			}
			return rep, err
		}
		size := binary.LittleEndian.Uint32(header[0:])
		want := binary.LittleEndian.Uint32(header[4:])
		remaining := rep.TotalBytes - rep.GoodBytes - 8
		if size > maxFrame {
			// An append never writes a frame this large; the header
			// itself is garbage (not just a torn payload).
			rep.finish(TailImplausibleLength, 0)
			return rep, nil
		}
		if int64(size) > remaining {
			// The header claims more payload than the file holds: the
			// append was cut off before the payload landed. Checking
			// against the real file size also keeps a hostile length
			// from forcing a huge allocation.
			rep.finish(TailTornPayload, 0)
			return rep, nil
		}
		frameEnd := rep.GoodBytes + 8 + int64(size)
		// decodeEntry copies everything it keeps, so one buffer serves
		// every frame.
		if cap(payload) < int(size) {
			payload = make([]byte, size)
		}
		payload = payload[:size]
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.ErrUnexpectedEOF || err == io.EOF {
				rep.finish(TailTornPayload, 0)
				return rep, nil
			}
			return rep, err
		}
		if crc32.ChecksumIEEE(payload) != want {
			rep.finish(TailBadChecksum, frameEnd)
			return rep, nil
		}
		e, err := decodeEntry(payload)
		if err != nil {
			rep.finish(TailUndecodable, frameEnd)
			return rep, nil
		}
		if err := fn(e, rep.GoodBytes, 8+int64(size)); err != nil {
			return rep, err
		}
		rep.Entries++
		switch e.Op {
		case opInsert:
			rep.Inserts++
		case opDelete:
			rep.Deletes++
		}
		rep.GoodBytes += 8 + int64(size)
	}
}
