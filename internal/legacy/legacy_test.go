package legacy

import (
	"fmt"
	"testing"
	"time"

	"unilog/internal/dataflow"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/recordio"
	"unilog/internal/session"
	"unilog/internal/thrift"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
)

var day = time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)

func TestWebFrontendRoundTrip(t *testing.T) {
	at := day.Add(3 * time.Hour)
	rec := EncodeWebFrontend(42, "cookie", "10.0.0.1", at, "home:click", map[string]string{"k": "v"})
	e, err := DecodeWebFrontend(rec)
	if err != nil {
		t.Fatal(err)
	}
	if e.UserID != 42 || e.SessionCookie != "cookie" || e.Event.Type != "home:click" || e.Event.Params["k"] != "v" {
		t.Fatalf("decoded = %+v", e)
	}
	got, err := e.Time()
	if err != nil || !got.Equal(at) {
		t.Fatalf("Time = %v, %v", got, err)
	}
}

func TestAPIServerRoundTrip(t *testing.T) {
	at := day.Add(time.Hour)
	rec := EncodeAPIServer(7, "sess", "home/click", "11.0.0.1", at)
	e, err := DecodeAPIServer(rec)
	if err != nil {
		t.Fatal(err)
	}
	if e.UID != 7 || e.Sess != "sess" || e.Action != "home/click" || e.Unix != at.Unix() {
		t.Fatalf("decoded = %+v", e)
	}
	// Garbage delimiters yield errors, not silent garbage.
	if _, err := DecodeAPIServer([]byte("a,b,c")); err == nil {
		t.Fatal("comma-delimited line decoded")
	}
	if _, err := DecodeAPIServer([]byte("x\ty\tz\tw\tnotanumber")); err == nil {
		t.Fatal("bad timestamp decoded")
	}
}

func TestSearchEventRoundTrip(t *testing.T) {
	in := &SearchEvent{UserID: 9, Action: "click", IP: "12.0.0.1", Millis: day.UnixMilli()}
	var out SearchEvent
	if err := thrift.DecodeCompact(thrift.EncodeCompact(in), &out); err != nil {
		t.Fatal(err)
	}
	if out != *in {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestFromClientEventRouting(t *testing.T) {
	mk := func(name string) *events.ClientEvent {
		return &events.ClientEvent{
			Name: events.MustParseName(name), UserID: 1, SessionID: "s",
			IP: "10.0.0.1", Timestamp: day.UnixMilli(),
		}
	}
	cases := []struct {
		name string
		want string
	}{
		{"web:home:timeline:stream:tweet:impression", CategoryWeb},
		{"web:search:results:stream:result:click", CategorySearch},
		{"iphone:search:results:stream:result:click", CategorySearch},
		{"iphone:home:timeline:stream:tweet:impression", CategoryAPI},
		{"android:profile:::follow_button:follow", CategoryAPI},
	}
	for _, c := range cases {
		cat, rec := FromClientEvent(mk(c.name))
		if cat != c.want {
			t.Errorf("FromClientEvent(%s) category = %s, want %s", c.name, cat, c.want)
		}
		if len(rec) == 0 {
			t.Errorf("FromClientEvent(%s) empty record", c.name)
		}
	}
}

// writeLegacyDay converts a generated day into legacy categories on fs.
func writeLegacyDay(t *testing.T, fs *hdfs.FS, evs []events.ClientEvent) map[string][]string {
	t.Helper()
	type buf struct {
		data *sliceWriter
		w    *recordio.GzipWriter
	}
	bufs := map[string]*buf{}
	for i := range evs {
		cat, rec := FromClientEvent(&evs[i])
		b := bufs[cat]
		if b == nil {
			sw := &sliceWriter{}
			b = &buf{data: sw, w: recordio.NewGzipWriter(sw)}
			bufs[cat] = b
		}
		if err := b.w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	dirs := map[string][]string{}
	for cat, b := range bufs {
		if err := b.w.Close(); err != nil {
			t.Fatal(err)
		}
		dir := warehouse.HourDir(cat, day)
		if err := fs.WriteFile(dir+"/part-00000.gz", b.data.data); err != nil {
			t.Fatal(err)
		}
		dirs[cat] = []string{dir}
	}
	return dirs
}

type sliceWriter struct{ data []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.data = append(s.data, p...)
	return len(p), nil
}

// TestReconstructSessionsMatchesUnified: the painful legacy join-based
// reconstruction finds the same logged-in session count as the unified
// sessionizer, at higher cost.
func TestReconstructSessionsMatchesUnified(t *testing.T) {
	cfg := workload.DefaultConfig(day)
	cfg.Users = 60
	cfg.LoggedOutSessions = 0 // legacy search logs can't sessionize user 0
	evs, truth := workload.New(cfg).Generate()

	fs := hdfs.New(0)
	dirs := writeLegacyDay(t, fs, evs)
	j := dataflow.NewJob("legacy", fs)
	got, err := ReconstructSessions(j, dirs, session.InactivityGap)
	if err != nil {
		t.Fatal(err)
	}
	if got != truth.Sessions {
		t.Fatalf("legacy reconstruction = %d sessions, truth = %d", got, truth.Sessions)
	}
	if j.Stats().ShuffleBytes == 0 || j.Stats().MapTasks < 3 {
		t.Fatalf("legacy job stats = %+v, expected multi-category scan + shuffle", j.Stats())
	}
}

func TestFormatsRejectGarbage(t *testing.T) {
	for cat, f := range Formats() {
		if tup := f.Decode([]byte("complete garbage \x00\x01")); tup != nil && cat != CategoryAPI {
			// api_server garbage without tabs errors; web/search must too.
			t.Errorf("%s decoded garbage into %v", cat, tup)
		}
	}
}

func TestNormalizedSchemaStable(t *testing.T) {
	want := fmt.Sprint(dataflow.Schema{"user_id", "session_hint", "ip", "timestamp_ms", "action"})
	for cat, f := range Formats() {
		if fmt.Sprint(f.Schema()) != want {
			t.Errorf("%s schema = %v", cat, f.Schema())
		}
	}
}
