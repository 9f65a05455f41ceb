package main

import (
	"bytes"
	"compress/flate"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel. The sandbox's two cores are shared with other
// tenants of the host, and the speed at which they run this process moves by
// a fifth or more over minutes: every timing of a run moves with it, on the
// wall clock and on the processor clock alike, so no estimator inside one run
// can tell a slow host from slow code. What a run can do is time, between
// its own legs, a fixed piece of work that no change to the repository
// touches, and quote its timings at the speed that work ran at. kernel is
// that work: the operations the pipeline spends its time in (small
// allocations, string-keyed maps, sorting, deflate and inflate, loads that
// miss the cache), from the standard library only, on inputs that never
// change.

// kernelNominalMs is what one kernel takes on the reference sandbox in a
// quiet spell. It only fixes the scale: a run on a host at that speed quotes
// its timings as measured.
const kernelNominalMs = 35.0

// kernelInputs are built once per process and only read afterwards.
type kernelInputs struct {
	text  []byte
	keys  []string
	chain []uint32 // one cycle through chaseSlots slots, in a scattered order
}

const (
	chaseSlots = 1 << 23 // 32 MiB of uint32: eight times the core's own cache
	chaseSteps = 60_000
)

var sharedKernelInputs = sync.OnceValue(func() *kernelInputs {
	k := &kernelInputs{}
	// Text with the repetitiveness of log records: a small vocabulary drawn
	// by a fixed xorshift sequence.
	words := []string{"web", "iphone", "home", "mentions", "stream", "tweet", "click", "impression", "profile", "search", "follow", "open", ":", ":", "\t", "\n"}
	x := uint64(88172645463325252)
	for len(k.text) < 192<<10 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.text = append(k.text, words[x%uint64(len(words))]...)
		k.text = strconv.AppendUint(k.text, x%1000, 10)
	}
	for i := 0; i < 12000; i++ {
		k.keys = append(k.keys, "client:page:section:"+strconv.Itoa(i*7919%12000))
	}
	// A single cycle over every slot (Sattolo's shuffle), so that a walk
	// along it is a chain of dependent loads with no locality. The table is
	// mapped outside the Go heap: inside it, it would double the collector's
	// heap goal and so change how often the workloads collect.
	k.chain = mapUint32s(chaseSlots)
	for i := range k.chain {
		k.chain[i] = uint32(i)
	}
	for i := len(k.chain) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		k.chain[i], k.chain[j] = k.chain[j], k.chain[i]
	}
	return k
})

// mapUint32s returns n zeroed uint32s in an anonymous mapping that lives as
// long as the process.
func mapUint32s(n int) []uint32 {
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]uint32, n)
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)
}

// chase follows the chain for chaseSteps dependent loads from where the
// last walk stopped: the part of the kernel that waits for memory, as a scan
// over a heap of a hundred megabytes does.
func (c *calibrator) chase() int {
	at := c.at
	for i := 0; i < chaseSteps; i++ {
		at = c.chain[at]
	}
	c.at = at
	return int(at & 1)
}

// run does the fixed work once and returns a value that depends on all of
// it, so that none of it can be skipped.
func (c *calibrator) run() int {
	// Small allocations behind a string-keyed map, as in a rollup.
	type cell struct{ n, sum int64 }
	m := make(map[string]*cell)
	for round := 0; round < 3; round++ {
		for i, key := range c.keys {
			cl := m[key]
			if cl == nil {
				cl = &cell{}
				m[key] = cl
			}
			cl.n++
			cl.sum += int64(i)
		}
	}
	// A sort of freshly built strings, as in a shuffle.
	rows := make([]string, 0, len(c.keys))
	for key, cl := range m {
		rows = append(rows, key+strconv.FormatInt(cl.sum, 10))
	}
	sort.Strings(rows)
	// Deflate and inflate, as in the warehouse's row files.
	// No call below can fail: the level is a valid one, the writer's sink
	// is a bytes.Buffer, and the reader is fed what the writer just made.
	c.buf.Reset()
	zw, _ := flate.NewWriter(&c.buf, flate.DefaultCompression)
	zw.Write(c.text)
	zw.Close()
	packed := c.buf.Len()
	n, _ := io.Copy(io.Discard, flate.NewReader(bytes.NewReader(c.buf.Bytes())))
	return len(rows[0]) + packed + int(n) + c.chase()
}

// calibrator times the kernel between the legs of a run. Every reading is the
// processor time of the one thread the kernel runs on, so that neither a
// neighbour's time slice nor the collector's background workers count.
type calibrator struct {
	*kernelInputs
	buf  bytes.Buffer // the deflated text
	at   uint32       // where the last walk along the chain stopped
	last time.Time
	ms   []float64
	sink int
}

// kernelEvery is the least time between two kernels: one costs 35-45 ms,
// so a run spends about a tenth of its measured time on them.
const kernelEvery = 250 * time.Millisecond

func newCalibrator() *calibrator { return &calibrator{kernelInputs: sharedKernelInputs()} }

// tick runs the kernel if the last one is kernelEvery or more ago. The
// workloads call it between timed legs, never inside one, and after the
// collection a leg starts with, so that the kernel runs on a collected heap.
func (c *calibrator) tick(tr *tracer, phase string, parent int) {
	if c == nil || time.Since(c.last) < kernelEvery {
		return
	}
	// The span carries its phase in its name, so that an attribution counts
	// only the kernels that ran inside the chain it explains.
	id := tr.begin("bench.kernel."+phase, phase, parent)
	defer tr.end(id, 0)
	runtime.LockOSThread()
	t0 := threadCPU()
	c.sink += c.run()
	ms := float64(threadCPU()-t0) / 1e6
	runtime.UnlockOSThread()
	c.ms = append(c.ms, ms)
	c.last = time.Now()
}

// threadCPU is the processor time the calling thread has used. It asks the
// thread's own clock: getrusage(RUSAGE_THREAD) answers in scheduler ticks of
// 4 ms, a tenth of a kernel.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	// The clock exists on every Linux and ts is a valid pointer.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// slowdown is how much slower than nominal the host ran the kernel over the
// run: the median reading over kernelNominalMs. A timing divided by it is
// the timing at nominal speed.
func (c *calibrator) slowdown() float64 {
	if len(c.ms) == 0 {
		return 1
	}
	return median(c.ms) / kernelNominalMs
}
