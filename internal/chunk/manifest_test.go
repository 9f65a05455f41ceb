package chunk

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"unilog/internal/hdfs"
	"unilog/internal/recordio"
)

// sealedTestHour seals evs as chunks of chunkRows into testDir, the manifest
// included, and returns the file system and the zone maps the builder gave.
func sealedTestHour(tb testing.TB, n, chunkRows int) (*hdfs.FS, []Meta) {
	tb.Helper()
	fs := hdfs.New(0)
	var b Builder
	var chunks []Meta
	for i, e := range testEvents(n) {
		if err := b.AddRecord(e.Marshal()); err != nil {
			tb.Fatal(err)
		}
		if b.Rows() == chunkRows || i == n-1 {
			m, err := writeChunk(&b, fs, testDir, len(chunks))
			if err != nil {
				tb.Fatal(err)
			}
			chunks = append(chunks, m)
		}
	}
	if err := WriteSealed(fs, testDir, chunks); err != nil {
		tb.Fatal(err)
	}
	return fs, chunks
}

// TestManifestListsTheHour: the manifest an hour's seal writes reads back
// as the zone maps AppendImage returned, each the one the image's own meta
// section holds, and the day reader lists the hour from it with one read
// of one file.
func TestManifestListsTheHour(t *testing.T) {
	fs, want := sealedTestHour(t, 300, 70)
	before := fs.Snapshot()
	chunks, rows, err := HourFiles(fs, testDir)
	after := fs.Snapshot()
	if err != nil || rows != nil || len(chunks) != len(want) || len(want) != 5 {
		t.Fatalf("HourFiles = %d chunks, %v, %v; want %d chunks", len(chunks), rows, err, len(want))
	}
	if opened := after.OpenOps - before.OpenOps; opened != 1 {
		t.Fatalf("listing the hour opened %d files, want the marker alone", opened)
	}
	for i := range chunks {
		own, err := imageMeta(fs, Path(testDir, i))
		if err != nil || chunks[i] != want[i] || own != want[i] {
			t.Fatalf("chunk %d: manifest %+v, builder %+v, image %+v (%v)", i, chunks[i], want[i], own, err)
		}
	}
	empty := hdfs.New(0)
	if err := WriteSealed(empty, testDir, nil); err != nil {
		t.Fatal(err)
	}
	if chunks, rows, err := HourFiles(empty, testDir); err != nil || len(chunks) != 0 || len(rows) != 0 {
		t.Fatalf("an empty sealed hour lists %v, %v, %v", chunks, rows, err)
	}
}

// FuzzManifest: ReadManifest of any bytes fails with ErrCorrupt or
// ErrTruncated naming the marker, or returns a manifest that WriteSealed
// writes back byte for byte.
func FuzzManifest(f *testing.F) {
	fs, _ := sealedTestHour(f, 300, 70)
	marker, err := fs.ReadFile(SealedPath(testDir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(marker)
	f.Add(marker[:len(marker)/2])
	flipped := bytes.Clone(marker)
	flipped[len(marker)/3] ^= 0x20
	f.Add(flipped)
	f.Add(frame(payloads(f, marker)[0][:40]))
	f.Add(frame(appendManifest(nil, nil)))
	f.Add([]byte{})
	path := SealedPath(testDir)
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := hdfs.New(0)
		if err := fs.WriteFile(path, data); err != nil {
			t.Fatal(err)
		}
		chunks, err := ReadManifest(fs, testDir)
		if err != nil {
			if !errors.Is(err, recordio.ErrCorrupt) && !errors.Is(err, recordio.ErrTruncated) {
				t.Fatalf("error %q is neither ErrCorrupt nor ErrTruncated", err)
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name the marker", err)
			}
			return
		}
		again := hdfs.New(0)
		if err := WriteSealed(again, testDir, chunks); err != nil {
			t.Fatal(err)
		}
		if got, err := again.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("the manifest of %d chunks writes back as %x, read from %x", len(chunks), got, data)
		}
	})
}
