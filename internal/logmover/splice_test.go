package logmover

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"unilog/internal/hdfs"
	"unilog/internal/telemetry"
	"unilog/internal/warehouse"
)

// movedFiles reads the mover's per-path file counters.
func movedFiles() (spliced, reencoded int64) {
	s := telemetry.Snapshot().Series
	return s["logmover.files.spliced"], s["logmover.files.reencoded"]
}

// TestSpliceMatchesReencode moves the same staged hour twice — spliced,
// and through an identity Transform, which takes the decode-and-recompress
// path — and requires the two warehouses to hold the same record sequence
// and the two audits to account for the same input, each with BytesOut
// equal to what its published directory really holds.
func TestSpliceMatchesReencode(t *testing.T) {
	identity := func(_ string, rec []byte) ([]byte, error) { return rec, nil }
	var msgs [2][]string
	var audits [2]AuditRecord
	for i, transform := range []func(string, []byte) ([]byte, error){nil, identity} {
		dc := stageFiles(t, 1000, 50)
		wh := hdfs.New(0)
		m := New(wh, Source{"dc1", dc.Staging})
		m.TargetFileBytes = 2048
		m.Transform = transform
		spliced0, reencoded0 := movedFiles()
		rec, err := m.MoveHour("ce", t0)
		if err != nil {
			t.Fatal(err)
		}
		spliced, reencoded := movedFiles()
		wantSpliced, wantReencoded := int64(rec.FilesIn), int64(0)
		if transform != nil {
			wantSpliced, wantReencoded = 0, int64(rec.FilesIn)
		}
		if spliced-spliced0 != wantSpliced || reencoded-reencoded0 != wantReencoded {
			t.Fatalf("%d files in: %d spliced, %d re-encoded, want %d and %d",
				rec.FilesIn, spliced-spliced0, reencoded-reencoded0, wantSpliced, wantReencoded)
		}
		published, err := wh.TotalSize(warehouse.HourDir("ce", t0))
		if err != nil {
			t.Fatal(err)
		}
		if rec.BytesOut != published {
			t.Fatalf("BytesOut = %d, published directory holds %d", rec.BytesOut, published)
		}
		if transform == nil && rec.BytesOut != rec.BytesIn {
			t.Fatalf("spliced %d bytes in to %d bytes out", rec.BytesIn, rec.BytesOut)
		}
		msgs[i], audits[i] = warehouseMessages(t, wh, "ce", t0), rec
	}
	if len(msgs[0]) != 1000 || !reflect.DeepEqual(msgs[0], msgs[1]) {
		t.Fatalf("spliced warehouse reads %d records, re-encoded %d, or their order differs", len(msgs[0]), len(msgs[1]))
	}
	a, b := audits[0], audits[1]
	if a.Records != b.Records || a.FilesIn != b.FilesIn || a.BytesIn != b.BytesIn || a.Dropped != b.Dropped {
		t.Fatalf("audits differ:\nspliced    %+v\nre-encoded %+v", a, b)
	}
}

// TestCorruptFileAnywhereFailsSplice plants a damaged file as the first,
// a middle and the last staging file of the hour. Whatever was already
// verified and held ahead of it, the move fails with ErrCorruptFile
// naming file and datacenter, publishes nothing, and consumes nothing;
// once the bad file is gone the same hour moves whole.
func TestCorruptFileAnywhereFailsSplice(t *testing.T) {
	good := readAll(t, stageFiles(t, 100, 100).Staging, warehouse.StagingHourDir("ce", t0))[0]
	damage := map[string][]byte{
		"flipped byte":     append([]byte(nil), good...),
		"truncated":        good[:len(good)-5],
		"trailing garbage": append(append([]byte(nil), good...), "garbage"...),
	}
	damage["flipped byte"][len(good)/2] ^= 0x40
	// Staging files are visited in path order: dc1-agg0-00000.gz ... 00009.gz.
	places := map[string]string{"first": "aaa.gz", "middle": "dc1-agg0-00004x.gz", "last": "zzz.gz"}
	for place, name := range places {
		for kind, data := range damage {
			t.Run(place+"/"+kind, func(t *testing.T) {
				dc := stageFiles(t, 500, 50)
				dir := warehouse.StagingHourDir("ce", t0)
				bad := dir + "/" + name
				if err := dc.Staging.WriteFile(bad, data); err != nil {
					t.Fatal(err)
				}
				before, err := dc.Staging.Walk(dir)
				if err != nil {
					t.Fatal(err)
				}
				wh := hdfs.New(0)
				m := New(wh, Source{"dc1", dc.Staging})
				m.TargetFileBytes = 1024 // the hour would publish several parts
				_, err = m.MoveHour("ce", t0)
				if !errors.Is(err, ErrCorruptFile) {
					t.Fatalf("err = %v, want ErrCorruptFile", err)
				}
				if msg := err.Error(); !strings.Contains(msg, bad) || !strings.Contains(msg, "dc1") {
					t.Fatalf("error does not name file and datacenter: %v", err)
				}
				if wh.Exists(warehouse.LogsRoot) {
					t.Fatal("warehouse touched despite corrupt input")
				}
				after, err := dc.Staging.Walk(dir)
				if err != nil || !reflect.DeepEqual(before, after) {
					t.Fatalf("staging changed by a failed move (%v):\nbefore %v\nafter  %v", err, before, after)
				}
				if len(m.Audits()) != 0 {
					t.Fatalf("failed move left an audit: %+v", m.Audits())
				}

				if err := dc.Staging.Delete(bad, false); err != nil {
					t.Fatal(err)
				}
				rec, err := m.MoveHour("ce", t0)
				if err != nil || rec.Records != 500 {
					t.Fatalf("after removing the bad file: %+v, %v", rec, err)
				}
			})
		}
	}
}
