package logmover

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/telemetry"
	"unilog/internal/warehouse"
)

// TestSpliceMatchesStagedRecords moves a staged hour of twenty gzip files
// into parts of about 2 KiB and requires the parts, read back with
// recordio.ScanGzipFile, to hold the staged files' records in staging
// order; every file to count as spliced; and the audit's BytesOut to be
// what the published directory holds, the staged bytes unchanged.
func TestSpliceMatchesStagedRecords(t *testing.T) {
	dc := stageFiles(t, 1000, 50)
	var staged []string
	for _, data := range readAll(t, dc.Staging, warehouse.StagingHourDir("ce", t0)) {
		if err := recordio.ScanGzipFile(data, func(rec []byte) error {
			staged = append(staged, string(rec))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	wh := hdfs.New(0)
	m := New(wh, Source{"dc1", dc.Staging})
	m.TargetFileBytes = 2048
	spliced0 := telemetry.Snapshot().Series["logmover.files.spliced"]
	rec, err := m.MoveHour("ce", t0)
	if err != nil {
		t.Fatal(err)
	}
	if got := telemetry.Snapshot().Series["logmover.files.spliced"] - spliced0; rec.FilesIn != 20 || got != 20 {
		t.Fatalf("%d files in, %d counted spliced, want 20 and 20", rec.FilesIn, got)
	}
	published, err := wh.TotalSize(warehouse.HourDir("ce", t0))
	if err != nil {
		t.Fatal(err)
	}
	if rec.BytesOut != published || rec.BytesOut != rec.BytesIn || rec.FilesOut < 2 {
		t.Fatalf("%d bytes in, %d out in %d parts, the published directory holds %d; want several parts of the bytes in", rec.BytesIn, rec.BytesOut, rec.FilesOut, published)
	}
	if got := warehouseMessages(t, wh, "ce", t0); len(staged) != 1000 || !reflect.DeepEqual(got, staged) {
		t.Fatalf("the parts read %d records, the staged files %d, or their order differs", len(got), len(staged))
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
