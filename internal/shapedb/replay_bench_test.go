package shapedb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"threedess/internal/features"
	"threedess/internal/geom"
)

// BenchmarkOpenReplay measures Open over a journal of 40k descriptor-only
// records (a box mesh plus the four core descriptors): the replay every
// restart, standby bootstrap and rebalance destination pays before it
// serves. The gob sub-benchmark replays the same records from legacy
// frames, for comparison. Run with
//
//	go test -run '^$' -bench OpenReplay -benchtime 5x ./internal/shapedb
func BenchmarkOpenReplay(b *testing.B) {
	const n = 40000
	opts := features.NewExtractor(features.Options{}).Options()
	rng := rand.New(rand.NewSource(1))
	mesh := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	var binaryJournal, gobJournal []byte
	for id := int64(1); id <= n; id++ {
		e := entryOf(&Record{
			ID: id, Name: fmt.Sprintf("shape-%d", id), Group: int(id % 50),
			Mesh: mesh, Features: randomFeatures(opts, rng),
		})
		binaryJournal = append(binaryJournal, encodeFrame(e)...)
		gobJournal = append(gobJournal, legacyFrame(b, e)...)
	}
	for _, format := range []struct {
		name    string
		journal []byte
	}{{"binary", binaryJournal}, {"gob", gobJournal}} {
		b.Run(format.name, func(b *testing.B) {
			dir := b.TempDir()
			if err := os.WriteFile(filepath.Join(dir, journalName), format.journal, 0o644); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(format.journal)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, err := Open(dir, features.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if db.Len() != n {
					b.Fatalf("replayed %d records, want %d", db.Len(), n)
				}
				db.Close()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(float64(len(format.journal))/n, "bytes/record")
		})
	}
}
