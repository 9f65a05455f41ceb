package session

import (
	"fmt"
	"testing"
	"time"

	"unilog/internal/events"
	"unilog/internal/hdfs"
	"unilog/internal/warehouse"
	"unilog/internal/workload"
)

func benchDictionary(b *testing.B, n int) *Dictionary {
	b.Helper()
	h := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		h[fmt.Sprintf("web:p%04d:::e:act", i)] = int64(n - i)
	}
	d, err := Build(h)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkDictionaryBuild(b *testing.B) {
	h := make(map[string]int64, 1000)
	for i := 0; i < 1000; i++ {
		h[fmt.Sprintf("web:p%04d:::e:act", i)] = int64(1000 - i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	d := benchDictionary(b, 1000)
	names := make([]string, 200)
	for i := range names {
		names[i] = fmt.Sprintf("web:p%04d:::e:act", i%1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Encode(names); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	d := benchDictionary(b, 1000)
	names := make([]string, 200)
	for i := range names {
		names[i] = fmt.Sprintf("web:p%04d:::e:act", i%1000)
	}
	seq, err := d.Encode(names)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decode(seq); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionize(b *testing.B) {
	d := benchDictionary(b, 50)
	base := time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC)
	evs := make([]events.ClientEvent, 0, 10000)
	for u := int64(0); u < 100; u++ {
		for i := 0; i < 100; i++ {
			evs = append(evs, events.ClientEvent{
				Name:      events.MustParseName(fmt.Sprintf("web:p%04d:::e:act", (int(u)+i)%50)),
				UserID:    u,
				SessionID: "s",
				Timestamp: base.Add(time.Duration(u)*time.Minute + time.Duration(i)*time.Second).UnixMilli(),
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu := NewBuilder(d)
		for j := range evs {
			bu.Add(&evs[j])
		}
		recs, err := bu.Finish()
		if err != nil || len(recs) != 100 {
			b.Fatalf("recs = %d, %v", len(recs), err)
		}
	}
	b.ReportMetric(float64(len(evs)), "events")
}

// BenchmarkBuildDay times the whole daily job — scan, dictionary, session
// encoding, write — over a generated day, sealed into column chunks and as
// row files, with the catalog's three samples per name.
func BenchmarkBuildDay(b *testing.B) {
	cfg := workload.DefaultConfig(day)
	cfg.Users = 1500
	cfg.LoggedOutSessions = 500
	evs, truth := workload.New(cfg).Generate()
	for _, sealed := range []bool{true, false} {
		name := "rows"
		if sealed {
			name = "sealed"
		}
		b.Run(name, func(b *testing.B) {
			fs := hdfs.New(0)
			w := warehouse.NewWriter(fs, events.Category)
			for i := range evs {
				if err := w.Append(&evs[i]); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			if sealed {
				sealHours(b, fs, 8192, true, allHours...)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, stats, err := BuildDay(fs, day, 3)
				if err != nil || stats.Sessions != truth.Sessions {
					b.Fatalf("BuildDay: %d sessions, want %d, %v", stats.Sessions, truth.Sessions, err)
				}
				b.StopTimer()
				for _, dir := range []string{warehouse.SessionDayDir(day), warehouse.DictionaryDir(day)} {
					if err := fs.Delete(dir, true); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(truth.Events), "ns/event")
		})
	}
}
