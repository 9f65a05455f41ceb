package dataflow

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"unilog/internal/hdfs"
)

// The scan is the one stage of the engine that runs on more than one
// goroutine. parallelScan decodes splits on a Job.Parallelism-bounded
// worker pool into a bounded window and releases them to the consumer
// strictly in plan order through a reorder buffer, so its output is
// byte-identical to the serial splitIter's. Everything downstream of the
// scan — the run sort, the spill, the cascade, the merge and every reduce
// loop — is one streaming path on the calling goroutine.

// scanResult is one decoded split traveling from a scan worker to the
// consumer.
type scanResult struct {
	idx    int
	tuples []Tuple
	err    error
}

// parallelScan decodes splits with a pool of workers. A semaphore caps
// the undelivered splits in flight (decoding, buffered in the results
// channel, or parked in the reorder buffer), so prefetch memory is
// bounded at window ≈ 2×workers split buffers no matter how far the
// fastest worker runs ahead. Because every in-flight split holds a
// semaphore slot and the results channel has one slot of capacity per
// semaphore slot, sends never block and the pool cannot deadlock.
//
// Cost accounting matches the serial splitIter where the serial
// contract is observable: MapTasks is charged when a split is *delivered*
// (so a consumer that stops early charges a plan-order prefix, not
// whatever the prefetcher touched), RecordsRead per delivered tuple, and
// BytesRead once per scan as the filesystem-counter delta between open
// and finish — prefetched I/O is real I/O and is metered as such.
type parallelScan struct {
	job *Job
	sc  *scanSpec

	results chan scanResult
	sem     chan struct{}
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup

	before hdfs.Stats
	charge sync.Once

	ready   map[int]scanResult // completed out-of-order splits
	nextIdx int                // next split ordinal to deliver
	cur     []Tuple
	i       int
	active  bool // cur is a delivered split holding a semaphore slot
	err     error
}

func newParallelScan(j *Job, sc *scanSpec, workers int) *parallelScan {
	window := 2 * workers
	if window > len(sc.splits) {
		window = len(sc.splits)
	}
	s := &parallelScan{
		job:     j,
		sc:      sc,
		results: make(chan scanResult, window),
		sem:     make(chan struct{}, window),
		stop:    make(chan struct{}),
		ready:   make(map[int]scanResult),
		before:  j.FS.Snapshot(),
	}
	tmParWorkers.SetMax(int64(workers))
	var next atomic.Int64
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.worker(&next)
	}
	return s
}

// worker claims split ordinals and decodes them. The semaphore slot
// acquired before a claim travels with the split until the consumer
// moves past it.
func (s *parallelScan) worker(next *atomic.Int64) {
	defer s.wg.Done()
	for {
		select {
		case s.sem <- struct{}{}:
		case <-s.stop:
			return
		}
		idx := int(next.Add(1)) - 1
		if idx >= len(s.sc.splits) {
			<-s.sem
			return
		}
		t0 := time.Now()
		var tuples []Tuple
		err := s.sc.format.ReadSplit(s.job.FS, s.sc.splits[idx], func(t Tuple) error {
			tuples = append(tuples, t)
			return nil
		})
		tmScanSplitNs.ObserveSince(t0)
		tmParScanBusyNs.ObserveSince(t0)
		if err != nil {
			tuples = nil
		}
		select {
		case s.results <- scanResult{idx: idx, tuples: tuples, err: err}:
		case <-s.stop:
			return
		}
	}
}

func (s *parallelScan) Next() (Tuple, error) {
	for {
		if s.err != nil {
			return nil, s.err
		}
		if s.i < len(s.cur) {
			t := s.cur[s.i]
			s.i++
			s.job.stats.recordsRead.Add(1)
			return t, nil
		}
		if s.active {
			// Finished consuming a delivered split: release its window slot.
			s.cur, s.active = nil, false
			<-s.sem
		}
		if s.nextIdx == len(s.sc.splits) {
			s.finish()
			return nil, io.EOF
		}
		r, ok := s.ready[s.nextIdx]
		for !ok {
			q := <-s.results
			if q.idx == s.nextIdx {
				r = q
				break
			}
			s.ready[q.idx] = q
			tmScanQueueDepth.SetMax(int64(len(s.ready)))
		}
		delete(s.ready, s.nextIdx)
		s.nextIdx++
		s.job.stats.mapTasks.Add(1)
		if r.err != nil {
			// Sticky, like the serial iterator: a failed split cannot be
			// read past into a silently incomplete relation. The slot is
			// not released — the scan is over and Close tears down.
			s.err = r.err
			s.shutdown()
			s.finish()
			return nil, r.err
		}
		s.cur, s.i, s.active = r.tuples, 0, true
	}
}

// finish charges the scan's filesystem I/O exactly once, after workers
// have quiesced (EOF, first error, or Close).
func (s *parallelScan) finish() {
	s.charge.Do(func() {
		after := s.job.FS.Snapshot()
		db := after.BytesRead - s.before.BytesRead
		s.job.stats.bytesRead.Add(db)
		tmScanBytes.Add(db)
	})
}

// shutdown stops the pool and joins it. Workers mid-decode finish their
// split (sends never block) and exit at the next claim.
func (s *parallelScan) shutdown() {
	s.stopped.Do(func() { close(s.stop) })
	s.wg.Wait()
}

func (s *parallelScan) Close() error {
	s.shutdown()
	s.finish()
	return nil
}
