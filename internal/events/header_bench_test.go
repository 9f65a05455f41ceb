package events_test

import (
	"testing"
	"time"

	"unilog/internal/events"
	"unilog/internal/thrift"
	"unilog/internal/workload"
)

// BenchmarkHeaderDecode walks a batch of generated client events with one
// decoder, as the taps and the chunk encoder do, and reports ns per message
// for the bare walk (Header.Decode) and the walk that also hands back the
// details (Header.DecodePairs).
func BenchmarkHeaderDecode(b *testing.B) {
	cfg := workload.DefaultConfig(time.Date(2012, 8, 21, 0, 0, 0, 0, time.UTC))
	cfg.Users, cfg.LoggedOutSessions = 40, 20
	all, _ := workload.New(cfg).Generate()
	msgs := make([][]byte, len(all))
	for i := range all {
		msgs[i] = all[i].Marshal()
	}
	var dec thrift.CompactDecoder
	var h events.Header
	var pairs []events.Pair
	walks := []struct {
		name string
		walk func() error
	}{
		{"bare", func() error { return h.Decode(&dec) }},
		{"pairs", func() (err error) { pairs, err = h.DecodePairs(&dec, pairs); return err }},
	}
	for _, w := range walks {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, m := range msgs {
					dec.Reset(m)
					if err := w.walk(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(msgs)), "ns/msg")
		})
	}
}
