package chunk_test

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/hdfs"
	"unilog/internal/workload"
)

// sealedHour seals the first events of a generated day as one hour of
// 8192-row chunks, as the columnar seal cuts them, and returns the number
// of rows.
func sealedHour(tb testing.TB, events int) (*hdfs.FS, int) {
	tb.Helper()
	cfg := workload.DefaultConfig(time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC))
	cfg.Users = 1500
	evs, _ := workload.New(cfg).Generate()
	evs = evs[:min(events, len(evs))]
	fs := hdfs.New(0)
	var b chunk.Builder
	var chunks []chunk.Meta
	for i := range evs {
		if err := b.AddRecord(evs[i].Marshal()); err != nil {
			tb.Fatal(err)
		}
		if b.Rows() == 8192 || i == len(evs)-1 {
			m, err := chunk.WriteChunk(&b, fs, chunk.TestDir, len(chunks))
			if err != nil {
				tb.Fatal(err)
			}
			chunks = append(chunks, m)
		}
	}
	if err := chunk.WriteSealed(fs, chunk.TestDir, chunks); err != nil {
		tb.Fatal(err)
	}
	return fs, len(evs)
}

// scanBytesPerRow reads the hour twice through ReadHour, releasing each
// batch, and returns the bytes the second read allocated per row: the least
// of a few tries, since a collection between reads empties the pools.
func scanBytesPerRow(tb testing.TB, fs *hdfs.FS, rows int, need chunk.Set) float64 {
	tb.Helper()
	read := func() {
		if err := chunk.ReadHour(fs, chunk.TestDir, need, func(b *chunk.Batch) error {
			b.Release()
			return nil
		}); err != nil {
			tb.Fatal(err)
		}
	}
	best := -1.0
	for try := 0; try < 5; try++ {
		read()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read()
		runtime.ReadMemStats(&after)
		if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(rows); best < 0 || per < best {
			best = per
		}
	}
	return best
}

// parentScanBytesPerRow is what scanBytesPerRow read for every column of
// sealedHour(t, 24000) before chunk batches recycled their vectors, when
// every batch allocated its vectors and a copy of each column file.
const parentScanBytesPerRow = 146.6

// TestChunkScanRecyclesVectors: a scan that releases each chunk batch
// decodes the next chunk into the vectors and the image buffer it handed
// back, so reading a sealed hour again allocates at most half the bytes
// per row it did when every batch allocated its own (34.8 now: what is
// left is the strings a batch hands out, which outlive it).
func TestChunkScanRecyclesVectors(t *testing.T) {
	if chunk.RaceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	fs, rows := sealedHour(t, 24000)
	if got := scanBytesPerRow(t, fs, rows, chunk.All); got > parentScanBytesPerRow/2 {
		t.Fatalf("a second ReadHour allocated %.1f B/row, want at most %.1f", got, parentScanBytesPerRow/2)
	}
}

// TestKeptChunkBatchSurvivesLaterLoads: a chunk batch that is never
// released owns its vectors — twenty later loads, each released, decode
// into recycled vectors that are never the kept batch's, and every column
// value of the kept batch reads as it did.
func TestKeptChunkBatchSurvivesLaterLoads(t *testing.T) {
	fs, _ := sealedHour(t, 3*8192)
	chunks, err := chunk.ReadManifest(fs, chunk.TestDir)
	if err != nil {
		t.Fatal(err)
	}
	load := func(i int) *chunk.Batch {
		t.Helper()
		b, err := chunk.LoadChunk(fs, chunk.Path(chunk.TestDir, i), chunks[i], chunk.All)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	kept := load(0)
	want := load(0) // the same chunk in vectors of its own: it is never released
	ids := slices.Clone(kept.SessionID.IDs)
	for i := 0; i < 20; i++ {
		load(1 + i%2).Release()
	}
	if col := chunk.SameRows(&kept.Columns, &want.Columns); col != "" {
		t.Fatalf("kept batch's %s column changed under later loads", col)
	}
	if !slices.Equal(kept.SessionID.IDs, ids) {
		t.Fatal("kept batch's session ids changed under later loads")
	}
}
