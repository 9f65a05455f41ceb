package dataflow

import (
	"fmt"
	"io"
	"testing"

	"unilog/internal/hdfs"
)

// BenchmarkGroupByKey pits the engine's scratch-buffer key builder against
// the fmt.Sprintf-per-column rendering it replaced. The key is built once
// per tuple on every shuffle, so this is the group-by hot path.
func BenchmarkGroupByKey(b *testing.B) {
	tuples := make([]Tuple, 512)
	for i := range tuples {
		tuples[i] = Tuple{int64(i % 97), fmt.Sprintf("session-%d", i%31), i%2 == 0, float64(i) / 3}
	}
	idx := []int{0, 1, 2, 3}

	b.Run("sprintf", func(b *testing.B) {
		b.ReportAllocs()
		var sink int
		for i := 0; i < b.N; i++ {
			t := tuples[i%len(tuples)]
			// The old keyOf: one Sprintf (and one string concat) per column.
			k := ""
			for _, j := range idx {
				k += fmt.Sprintf("%v\x00", t[j])
			}
			sink += len(k)
		}
		_ = sink
	})

	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		var scratch []byte
		var sink int
		for i := 0; i < b.N; i++ {
			scratch = appendKey(scratch[:0], tuples[i%len(tuples)], idx)
			sink += len(scratch)
		}
		_ = sink
	})
}

// BenchmarkReduceStrategies pits the engine's streaming merge-reduce
// against the hash-reduce it replaced (inlined here as the reference: the
// old mergePass's index map + entries slice, folding every merged tuple
// into per-key state). Both strategies consume the identical resident
// shuffle — no spill-decode noise — so the allocs column is pure
// reduce-side cost, and it is the point of the comparison: hash-reduce
// allocates per *group* (retained key strings, map cells, the entries
// slice), so its allocs/op grow ~100x from groups=64 to groups=6400, while
// merge-reduce holds one running state and a reused boundary key, so its
// allocs/op stay flat as the group count scales. (Spilled-run reduce
// throughput is covered by BenchmarkGroupByShuffle and, end to end, by
// the benchmark's batch-rows-spill workload.)
func BenchmarkReduceStrategies(b *testing.B) {
	for _, groups := range []int{64, 6400} {
		j := NewJob("bench", hdfs.New(0))
		tuples := make([]Tuple, 64000)
		for i := range tuples {
			tuples[i] = Tuple{fmt.Sprintf("key-%06d", i%groups), int64(i)}
		}
		g, err := NewDataset(j, Schema{"k", "v"}, tuples).GroupBy("k")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("hash-reduce/groups=%d", groups), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := g.st.mergeAll()
				if err != nil {
					b.Fatal(err)
				}
				type entry struct {
					key string
					n   int64
				}
				index := make(map[string]int)
				var entries []entry
				for {
					key, _, err := m.next()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					ei, ok := index[string(key)]
					if !ok {
						ei = len(entries)
						k := string(key)
						index[k] = ei
						entries = append(entries, entry{key: k})
					}
					entries[ei].n++
				}
				m.Close()
				if len(entries) != groups {
					b.Fatalf("groups = %d", len(entries))
				}
			}
		})
		b.Run(fmt.Sprintf("merge-reduce/groups=%d", groups), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := mergePass(g,
					func(Tuple) int64 { return 0 },
					func(s int64, _ Tuple) (int64, error) { return s + 1, nil },
					func(int64) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				if n != groups {
					b.Fatalf("groups = %d", n)
				}
			}
		})
		g.Close()
	}
}

// BenchmarkGroupByShuffle measures a whole shuffle (partition + aggregate)
// at a size where key building dominates, in memory and spilling.
func BenchmarkGroupByShuffle(b *testing.B) {
	build := func(j *Job) *Dataset {
		tuples := make([]Tuple, 20000)
		for i := range tuples {
			tuples[i] = Tuple{int64(i % 997), fmt.Sprintf("s-%d", i%31), int64(i)}
		}
		return NewDataset(j, Schema{"u", "s", "v"}, tuples)
	}
	run := func(b *testing.B, budget int64) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := NewJob("bench", hdfs.New(0))
			j.MemoryBudget = budget
			j.SpillDir = b.TempDir()
			g, err := build(j).GroupBy("u", "s")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := g.Sum("v", "sum"); err != nil {
				b.Fatal(err)
			}
			g.Close()
		}
	}
	b.Run("in-memory", func(b *testing.B) { run(b, 0) })
	b.Run("spilling-64KiB", func(b *testing.B) { run(b, 64<<10) })
}
