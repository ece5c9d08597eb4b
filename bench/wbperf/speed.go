package main

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The two-core host this benchmark was sized on shares its CPUs: over
// minutes its cores run up to 30% slower or faster, and CPU time stretches
// exactly as much as wall time, so two runs minutes apart disagree by more
// than any useful regression bound. A run therefore keeps a speed probe
// going. Every probeEvery the probe times a fixed reference kernel by the
// CPU time of its own thread — time spent waiting for a CPU does not
// count, so the workload's own load does not either. The run's speed
// factor is the median kernel time over kernelRefMs, and its end-to-end
// timings are divided by the factor raised to speedExponent (rates are
// multiplied). The kernel is standard-library work that shares no code
// with the program, so a change to the program moves the scaled numbers
// exactly as it moves the raw ones, which print beside them.

const (
	probeEvery = 100 * time.Millisecond
	// kernelRefMs is the kernel's typical thread CPU time, in ms, on the
	// 2-core Xeon VM this benchmark was sized on.
	kernelRefMs = 2.6
	// speedExponent is how strongly the program's timings follow the
	// kernel's. Over 40 runs spanning quiet and busy hours on that host,
	// log time against log speed factor had slopes of 0.46-0.58 for the
	// CPU-bound metrics (r 0.86-0.90) and 0.67-0.83 for serve-churn, whose
	// connection setup slows more: the kernel feels contention about twice
	// as much as the program does.
	speedExponent = 0.55
)

// speedProbe samples the kernel on its own goroutine until stopped.
type speedProbe struct {
	stop, done chan struct{}
	// samples and err belong to the probe goroutine until done is closed.
	samples []float64 // kernel thread CPU time, ms
	err     error

	buf   []float64
	strs  []string
	idx   []int
	m     map[int]int
	sinkF float64
	sinkI int
}

func startProbe() *speedProbe {
	p := &speedProbe{
		stop: make(chan struct{}),
		done: make(chan struct{}),
		buf:  make([]float64, 1<<16),
		strs: make([]string, 4096),
		idx:  make([]int, 1<<14),
		m:    make(map[int]int, 4096),
	}
	for i := range p.strs {
		p.strs[i] = strconv.FormatFloat(float64(i)*0.0137+1.5, 'g', -1, 64)
		p.m[i] = 0
	}
	go p.loop()
	return p
}

func (p *speedProbe) loop() {
	defer close(p.done)
	t := time.NewTicker(probeEvery)
	defer t.Stop()
	for p.err == nil {
		p.sample()
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
	}
}

// sample times one kernel on a locked thread.
func (p *speedProbe) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, err := threadCPU()
	if err != nil {
		p.err = err
		return
	}
	p.kernel()
	t1, err := threadCPU()
	if err != nil {
		p.err = err
		return
	}
	p.samples = append(p.samples, ms(t1-t0))
}

// kernel is a fixed mix of the kinds of work the program does, none of
// which allocates: a float recurrence streamed over 512 KiB, float
// parsing, and a sort and map updates.
func (p *speedProbe) kernel() {
	acc := 0.0
	for r := 0; r < 4; r++ {
		for i := 1; i < len(p.buf); i++ {
			p.buf[i] = p.buf[i-1]*0.999 + float64(i&7)
			acc += p.buf[i] * 0.5
		}
	}
	for _, s := range p.strs {
		v, _ := strconv.ParseFloat(s, 64) // the strings were formatted from floats
		acc += v
	}
	for i := range p.idx {
		p.idx[i] = i * 7919 % len(p.idx)
	}
	sort.Ints(p.idx)
	for i := 0; i < len(p.strs); i++ {
		p.m[i*31%len(p.strs)] += i
	}
	p.sinkF += acc
	p.sinkI += p.idx[5] + p.m[7]
}

// factor stops the probe and returns how much slower than the reference
// the machine ran: the median kernel time over kernelRefMs.
func (p *speedProbe) factor() (float64, int, error) {
	close(p.stop)
	<-p.done
	if p.err != nil {
		return 0, 0, fmt.Errorf("speed probe: %w", p.err)
	}
	return sampleQuantile(p.samples, 0.5) / kernelRefMs, len(p.samples), nil
}

// threadCPU reads the calling thread's CPU time (Linux).
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, e
	}
	return time.Duration(ts.Nano()), nil
}
