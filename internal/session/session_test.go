package session

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"
	"unicode/utf8"

	"unilog/internal/chunk"
	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/warehouse"
)

func TestDictionaryFrequencyOrder(t *testing.T) {
	d, err := Build(map[string]int64{
		"web:home:::tweet:impression": 1000,
		"web:home:::tweet:click":      100,
		"iphone:home:::tweet:open":    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	imp, _ := d.Symbol("web:home:::tweet:impression")
	clk, _ := d.Symbol("web:home:::tweet:click")
	opn, _ := d.Symbol("iphone:home:::tweet:open")
	if !(imp < clk && clk < opn) {
		t.Fatalf("code points not frequency ordered: %U %U %U", imp, clk, opn)
	}
	if imp != firstCodePoint {
		t.Fatalf("most frequent event = %U, want %U", imp, firstCodePoint)
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	d, err := Build(map[string]int64{"a:::::x": 5, "b:::::y": 3, "c:::::z": 1})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a:::::x", "c:::::z", "a:::::x", "b:::::y"}
	seq, err := d.Encode(names)
	if err != nil {
		t.Fatal(err)
	}
	if !utf8.ValidString(seq) {
		t.Fatal("sequence is not valid unicode")
	}
	back, err := d.Decode(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(names) {
		t.Fatalf("decode length = %d", len(back))
	}
	for i := range names {
		if back[i] != names[i] {
			t.Fatalf("decode[%d] = %q, want %q", i, back[i], names[i])
		}
	}
}

func TestDictionaryUnknowns(t *testing.T) {
	d, err := Build(map[string]int64{"a:::::x": 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Encode([]string{"nope:::::x"}); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.Decode("￰"); !errors.Is(err, ErrUnknownSymbol) {
		t.Fatalf("err = %v", err)
	}
}

// TestVariableLengthCoding verifies the paper's trick: "more frequent
// events are assigned smaller code points ... smaller unicode points
// require fewer bytes to physically represent" (§4.2).
func TestVariableLengthCoding(t *testing.T) {
	// 3000 names: frequent ones must get shorter UTF-8 encodings.
	h := make(map[string]int64, 3000)
	for i := 0; i < 3000; i++ {
		h[fmt.Sprintf("web:p%04d:::e:act", i)] = int64(3000 - i)
	}
	d, err := Build(h)
	if err != nil {
		t.Fatal(err)
	}
	top, _ := d.Symbol("web:p0000:::e:act")
	bottom, _ := d.Symbol("web:p2999:::e:act")
	if utf8.RuneLen(top) != 1 {
		t.Fatalf("most frequent symbol %U encodes in %d bytes, want 1", top, utf8.RuneLen(top))
	}
	if utf8.RuneLen(bottom) <= utf8.RuneLen(top) {
		t.Fatalf("rare symbol %U not longer than frequent %U", bottom, top)
	}
}

// TestSurrogateAvoidance builds an alphabet large enough to cross the
// UTF-16 surrogate range and checks every symbol is a valid scalar value.
func TestSurrogateAvoidance(t *testing.T) {
	n := 60000
	h := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		h[fmt.Sprintf("c%05d:::::a", i)] = int64(n - i)
	}
	d, err := Build(h)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != n {
		t.Fatalf("Len = %d", d.Len())
	}
	for _, name := range d.Names() {
		r, _ := d.Symbol(name)
		if r >= 0xD800 && r <= 0xDFFF {
			t.Fatalf("symbol %U is a surrogate", r)
		}
		if r == utf8.RuneError {
			t.Fatalf("symbol is U+FFFD")
		}
		if r&0xFFFE == 0xFFFE || (r >= 0xFDD0 && r <= 0xFDEF) {
			t.Fatalf("symbol %U is a noncharacter", r)
		}
		if !utf8.ValidRune(r) {
			t.Fatalf("symbol %U not a valid rune", r)
		}
	}
}

func TestDictionaryMarshalRoundTrip(t *testing.T) {
	h := map[string]int64{"a:::::x": 9, "b:::::y": 5, "c:::::z": 5}
	d, err := Build(h)
	if err != nil {
		t.Fatal(err)
	}
	data, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != d.Len() {
		t.Fatalf("Len = %d", d2.Len())
	}
	for _, name := range d.Names() {
		r1, _ := d.Symbol(name)
		r2, ok := d2.Symbol(name)
		if !ok || r1 != r2 {
			t.Fatalf("symbol mismatch for %q: %U vs %U", name, r1, r2)
		}
		if d.Count(name) != d2.Count(name) {
			t.Fatalf("count mismatch for %q", name)
		}
	}
}

func TestSymbolsWhere(t *testing.T) {
	d, err := Build(map[string]int64{
		"web:home:::tweet:impression":    100,
		"web:home:::tweet:click":         50,
		"iphone:home:::tweet:impression": 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := events.MustParsePattern("*:impression")
	syms := d.SymbolsWhere(p.MatchesString)
	if len(syms) != 2 {
		t.Fatalf("SymbolsWhere = %d symbols, want 2", len(syms))
	}
}

// --- sessionizer ---

var day = time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)

func ev(user int64, sess string, name string, at time.Time) *events.ClientEvent {
	return &events.ClientEvent{
		Name:      events.MustParseName(name),
		UserID:    user,
		SessionID: sess,
		IP:        "10.0.0.1",
		Timestamp: at.UnixMilli(),
	}
}

func testDict(t *testing.T) *Dictionary {
	t.Helper()
	d, err := Build(map[string]int64{
		"web:home:::tweet:impression": 100,
		"web:home:::tweet:click":      50,
		"web:search:::result:click":   10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSessionizeGroupsAndOrders(t *testing.T) {
	d := testDict(t)
	b := NewBuilder(d)
	// Two users interleaved; events arrive out of order.
	b.Add(ev(2, "s2", "web:home:::tweet:click", day.Add(2*time.Minute)))
	b.Add(ev(1, "s1", "web:home:::tweet:impression", day))
	b.Add(ev(1, "s1", "web:search:::result:click", day.Add(5*time.Minute)))
	b.Add(ev(1, "s1", "web:home:::tweet:click", day.Add(1*time.Minute)))
	b.Add(ev(2, "s2", "web:home:::tweet:impression", day.Add(1*time.Minute)))
	recs, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("sessions = %d, want 2", len(recs))
	}
	got1, err := d.Decode(recs[0].Sequence)
	if err != nil {
		t.Fatal(err)
	}
	want1 := []string{"web:home:::tweet:impression", "web:home:::tweet:click", "web:search:::result:click"}
	for i := range want1 {
		if got1[i] != want1[i] {
			t.Fatalf("user1 sequence[%d] = %q, want %q", i, got1[i], want1[i])
		}
	}
	if recs[0].Duration != 300 {
		t.Fatalf("user1 duration = %d, want 300s", recs[0].Duration)
	}
	if recs[1].UserID != 2 || recs[1].EventCount() != 2 {
		t.Fatalf("user2 record = %+v", recs[1])
	}
}

// TestInactivityGapSplits: a gap greater than 30 minutes starts a new
// session for the same (user, session id) pair.
func TestInactivityGapSplits(t *testing.T) {
	d := testDict(t)
	b := NewBuilder(d)
	b.Add(ev(1, "cookie", "web:home:::tweet:impression", day))
	b.Add(ev(1, "cookie", "web:home:::tweet:click", day.Add(10*time.Minute)))
	// 31-minute silence.
	b.Add(ev(1, "cookie", "web:home:::tweet:impression", day.Add(41*time.Minute)))
	recs, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("sessions = %d, want 2 (gap split)", len(recs))
	}
	if recs[0].EventCount() != 2 || recs[1].EventCount() != 1 {
		t.Fatalf("session sizes = %d, %d", recs[0].EventCount(), recs[1].EventCount())
	}
	// A gap of exactly 30 minutes does NOT split.
	b2 := NewBuilder(d)
	b2.Add(ev(1, "c", "web:home:::tweet:impression", day))
	b2.Add(ev(1, "c", "web:home:::tweet:click", day.Add(30*time.Minute)))
	recs2, err := b2.Finish()
	if err != nil || len(recs2) != 1 {
		t.Fatalf("exact-gap sessions = %d, %v", len(recs2), err)
	}
}

func TestSameUserDifferentSessionIDs(t *testing.T) {
	d := testDict(t)
	b := NewBuilder(d)
	b.Add(ev(1, "laptop", "web:home:::tweet:impression", day))
	b.Add(ev(1, "phone", "web:home:::tweet:impression", day))
	recs, err := b.Finish()
	if err != nil || len(recs) != 2 {
		t.Fatalf("recs = %d, %v", len(recs), err)
	}
}

func TestEventConservationProperty(t *testing.T) {
	// Every event fed to the builder appears in exactly one session record.
	d := testDict(t)
	names := d.Names()
	f := func(userIDs []uint8, minutes []uint16) bool {
		if len(userIDs) == 0 {
			return true
		}
		if len(minutes) > len(userIDs) {
			minutes = minutes[:len(userIDs)]
		}
		b := NewBuilder(d)
		total := 0
		for i, u := range userIDs {
			min := 0
			if i < len(minutes) {
				min = int(minutes[i] % 1440)
			}
			b.Add(ev(int64(u%8), "s", names[i%len(names)], day.Add(time.Duration(min)*time.Minute)))
			total++
		}
		recs, err := b.Finish()
		if err != nil {
			return false
		}
		got := 0
		for _, r := range recs {
			got += r.EventCount()
			if r.Duration < 0 {
				return false
			}
		}
		return got == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordThriftRoundTrip(t *testing.T) {
	in := Record{UserID: 42, SessionID: "cookie", IP: "1.2.3.4", Sequence: "ȵ!Z", Duration: 1234, Start: day.UnixMilli()}
	fs := hdfs.New(0)
	if err := WriteDay(fs, day, []Record{in}, 0); err != nil {
		t.Fatal(err)
	}
	var out []Record
	if err := ScanDay(fs, day, func(r *Record) error {
		out = append(out, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != in {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
}

func TestWriteDayRolling(t *testing.T) {
	fs := hdfs.New(0)
	recs := make([]Record, 250)
	for i := range recs {
		recs[i] = Record{UserID: int64(i), SessionID: "s", Sequence: " ", Start: day.UnixMilli()}
	}
	if err := WriteDay(fs, day, recs, 100); err != nil {
		t.Fatal(err)
	}
	infos, err := fs.Walk(warehouse.SessionDayDir(day))
	if err != nil || len(infos) != 3 {
		t.Fatalf("part files = %d, %v", len(infos), err)
	}
	n := 0
	if err := ScanDay(fs, day, func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 250 {
		t.Fatalf("scanned %d records", n)
	}
}

// TestBuildDayEndToEnd exercises the full two-pass job against a warehouse
// populated through the direct writer.
func TestBuildDayEndToEnd(t *testing.T) {
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	nEvents := 0
	for u := int64(1); u <= 20; u++ {
		for i := 0; i < 30; i++ {
			name := "web:home:::tweet:impression"
			if i%5 == 0 {
				name = "web:home:::tweet:click"
			}
			e := ev(u, fmt.Sprintf("sess-%d", u), name, day.Add(time.Duration(u)*time.Hour).Add(time.Duration(i)*time.Minute))
			if err := w.Append(e); err != nil {
				t.Fatal(err)
			}
			nEvents++
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	dict, hist, stats, err := BuildDay(fs, day, 3)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Events != int64(nEvents) || stats.Events != int64(nEvents) {
		t.Fatalf("events = %d / %d, want %d", hist.Events, stats.Events, nEvents)
	}
	if dict.Len() != 2 {
		t.Fatalf("alphabet = %d", dict.Len())
	}
	// 30 events per user with 1-minute spacing => one session per user.
	if stats.Sessions != 20 {
		t.Fatalf("sessions = %d, want 20", stats.Sessions)
	}
	// The dictionary is persisted and reloadable.
	d2, err := LoadDictionary(fs, day)
	if err != nil || d2.Len() != 2 {
		t.Fatalf("LoadDictionary = %v, %v", d2, err)
	}
	// Samples were retained for the catalog.
	if len(hist.Samples["web:home:::tweet:impression"]) != 3 {
		t.Fatalf("samples = %d", len(hist.Samples["web:home:::tweet:impression"]))
	}
	// The materialized day is much smaller than the raw logs.
	if stats.SeqBytes == 0 || stats.RawBytes == 0 {
		t.Fatalf("sizes not measured: %+v", stats)
	}
	if stats.Ratio() < 2 {
		t.Fatalf("compression ratio = %.1f, expected sequences to be much smaller", stats.Ratio())
	}
	// Scanning the day returns every session with decodable sequences.
	n := 0
	if err := ScanDay(fs, day, func(r *Record) error {
		if _, err := dict.Decode(r.Sequence); err != nil {
			return err
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("scanned %d sessions", n)
	}
}

func TestEncodeDecodePropertyOverDictionary(t *testing.T) {
	d := testDict(t)
	names := d.Names()
	f := func(idx []uint8) bool {
		in := make([]string, len(idx))
		for i, x := range idx {
			in[i] = names[int(x)%len(names)]
		}
		seq, err := d.Encode(in)
		if err != nil {
			return false
		}
		out, err := d.Decode(seq)
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRawBytesCountChunkOnlyHours: the raw size behind Ratio counts an
// hour's row files, or, for an hour the log mover published as column
// chunks alone, the files it holds. Hours 0 and 1 are chunks only, hour 2
// is sealed with its rows kept (its rows count, not its chunks), hour 3 is
// rows only.
func TestRawBytesCountChunkOnlyHours(t *testing.T) {
	fs := hdfs.New(0)
	w := warehouse.NewWriter(fs, events.Category)
	for h := 0; h < 4; h++ {
		for i := 0; i < 50; i++ {
			e := ev(int64(i%7+1), fmt.Sprintf("s%d", i%7), "web:home:::tweet:impression", day.Add(time.Duration(h)*time.Hour+time.Duration(i)*time.Minute))
			if err := w.Append(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sealHours(t, fs, 16, true, 0, 1, 2)
	var want int64
	for h := 0; h < 4; h++ {
		dir := warehouse.HourDir(events.Category, day.Add(time.Duration(h)*time.Hour))
		infos, err := fs.Walk(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range infos {
			switch {
			case h < 2 && !chunk.IsAuxiliary(fi.Path):
				if err := fs.Delete(fi.Path, false); err != nil {
					t.Fatal(err)
				}
			case h < 2 || !chunk.IsAuxiliary(fi.Path):
				want += fi.Size
			}
		}
	}
	_, _, stats, err := BuildDay(fs, day, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 200 || stats.RawBytes != want || stats.Ratio() <= 0 {
		t.Fatalf("%d events, RawBytes = %d, ratio %.2f; want 200, %d and a ratio", stats.Events, stats.RawBytes, stats.Ratio(), want)
	}
}
