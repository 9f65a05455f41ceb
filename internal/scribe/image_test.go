package scribe

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"unilog/internal/chunk"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/telemetry"
	"unilog/internal/warehouse"
)

// clientEvent is the i-th of a few shapes of client event: two names, both
// login states, details on some rows.
func clientEvent(i int) *events.ClientEvent {
	names := []string{"web:home:timeline:stream:tweet:impression", "iphone:profile:header:bio:link:click"}
	e := &events.ClientEvent{
		Initiator: events.Initiator(i % 3),
		Name:      events.MustParseName(names[i%2]),
		UserID:    int64(i % 4 * 1000),
		SessionID: fmt.Sprintf("s%02d", i%7),
		IP:        fmt.Sprintf("10.0.0.%d", i%5),
		Timestamp: t0.UnixMilli() + int64(i),
	}
	if i%3 == 0 {
		e.Details = map[string]string{"rank": fmt.Sprint(i), "lang": "en", "trace": fmt.Sprintf("%04x", i)}
	}
	return e
}

// stagedImages reads back every chunk image staged for a client-events
// hour, in path order, as the events their rows hold.
func stagedImages(t *testing.T, fs *hdfs.FS) [][]events.ClientEvent {
	t.Helper()
	dir := warehouse.StagingHourDir(events.Category, t0)
	infos, err := fs.Walk(dir)
	if err != nil {
		t.Fatal(err)
	}
	var images [][]events.ClientEvent
	for _, fi := range infos {
		if fi.Path == dir+"/"+warehouse.SealedMarker {
			continue
		}
		if !strings.HasSuffix(fi.Path, ".col") {
			t.Fatalf("client-events staging file %s is not a chunk image", fi.Path)
		}
		data, err := fs.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := chunk.ReadImage(fi.Path, data)
		if err != nil {
			t.Fatal(err)
		}
		var rows []events.ClientEvent
		for row := 0; row < b.Rows; row++ {
			e, err := b.Event(row)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, e)
		}
		b.Release()
		images = append(images, rows)
	}
	return images
}

// TestAggregatorStagesChunkImages: a client-events stream is staged as one
// chunk image per roll, and each image reads back as the rows of the
// records the stream took, in order.
func TestAggregatorStagesChunkImages(t *testing.T) {
	dc, _ := newDC(t, 1, 1)
	dc.Aggregators[0].RollRecords = 40
	const n = 100
	for i := 0; i < n; i++ {
		dc.Daemons[0].Log(events.Category, clientEvent(i).Marshal())
	}
	if err := dc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	images := stagedImages(t, dc.Staging)
	if len(images) != 3 || len(images[0]) != 40 || len(images[2]) != 20 {
		t.Fatalf("staged %d images, want rolls of 40, 40 and 20 rows", len(images))
	}
	i := 0
	for _, rows := range images {
		for _, got := range rows {
			if want := clientEvent(i); !reflect.DeepEqual(&got, want) {
				t.Fatalf("row %d = %+v, logged %+v", i, got, want)
			}
			i++
		}
	}
	if st := dc.Aggregators[0].Stats(); st.MessagesReceived != n || st.FilesWritten != 3 || st.Invalid != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAggregatorStagesInvalidClientEventsAsRows: a client event the chunk
// encoder refuses — no thrift, or a name ParseName rejects — is staged as a
// gzip row of InvalidCategory, counted, and tapped under that category;
// the valid ones around it stay in the stream's image.
func TestAggregatorStagesInvalidClientEventsAsRows(t *testing.T) {
	dc, _ := newDC(t, 1, 1)
	agg := dc.Aggregators[0]
	var tapped []string
	agg.Tap = func(batch []Entry) {
		for _, e := range batch {
			tapped = append(tapped, e.Category)
		}
	}
	badName := clientEvent(1)
	badName.Name = events.EventName{Client: "Web", Page: "home", Section: "a", Component: "b", Element: "c", Action: "d"}
	invalid0 := telemetry.Snapshot().Series["scribe.aggregator.invalid"]
	msgs := [][]byte{clientEvent(0).Marshal(), []byte("not thrift"), badName.Marshal(), clientEvent(3).Marshal()}
	for _, msg := range msgs {
		dc.Daemons[0].Log(events.Category, msg)
	}
	if err := dc.FlushAll(); err != nil {
		t.Fatal(err)
	}
	images := stagedImages(t, dc.Staging)
	if len(images) != 1 || len(images[0]) != 2 || !reflect.DeepEqual(&images[0][1], clientEvent(3)) {
		t.Fatalf("staged images %+v, want one of the two valid events", images)
	}
	rows := stagingMessages(t, dc.Staging, InvalidCategory, t0)
	if want := []string{"not thrift", string(msgs[2])}; !reflect.DeepEqual(rows, want) {
		t.Fatalf("%s rows = %q, want %q", InvalidCategory, rows, want)
	}
	if st := agg.Stats(); st.Invalid != 2 || st.MessagesReceived != 4 || st.MessagesDropped != 0 {
		t.Fatalf("stats = %+v, want 2 invalid of 4 received, none dropped", st)
	}
	if got := telemetry.Snapshot().Series["scribe.aggregator.invalid"] - invalid0; got != 2 {
		t.Fatalf("scribe.aggregator.invalid grew by %d, want 2", got)
	}
	want := []string{events.Category, InvalidCategory, InvalidCategory, events.Category}
	if !reflect.DeepEqual(tapped, want) {
		t.Fatalf("tapped categories %v, want %v", tapped, want)
	}
}

// TestSealHourLeavesLaterStreamsOpen: sealing an hour after the clock has
// moved on flushes the daemons' spools into the new hour's streams but
// stages only the sealed hour; the new hour's entries are staged with the
// rest of their hour, in one image, when that hour is sealed.
func TestSealHourLeavesLaterStreamsOpen(t *testing.T) {
	dc, clock := newDC(t, 1, 1)
	d := dc.Daemons[0]
	d.BatchSize = 10
	for i := 0; i < 25; i++ { // two batches reach hour 14, five wait in the spool
		d.Log(events.Category, clientEvent(i).Marshal())
	}
	clock.Advance(time.Hour)
	if err := dc.SealHour([]string{events.Category}, t0); err != nil {
		t.Fatal(err)
	}
	if images := stagedImages(t, dc.Staging); len(images) != 1 || len(images[0]) != 20 {
		t.Fatalf("hour 14 staged %d images, want one of its 20 rows", len(images))
	}
	next := warehouse.StagingHourDir(events.Category, t0.Add(time.Hour))
	if dc.Staging.Exists(next) {
		t.Fatalf("sealing hour 14 staged %s", next)
	}
	for i := 25; i < 40; i++ {
		d.Log(events.Category, clientEvent(i).Marshal())
	}
	if err := dc.SealHour([]string{events.Category}, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	infos, err := dc.Staging.Walk(next)
	if err != nil || len(infos) != 2 { // one image and the marker
		t.Fatalf("hour 15 holds %d files (%v), want one image and its marker", len(infos), err)
	}
	if st := dc.Aggregators[0].Stats(); st.MessagesReceived != 40 || st.PendingMessages != 0 || st.FilesWritten != 2 {
		t.Fatalf("stats = %+v", st)
	}
}
