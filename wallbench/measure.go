package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// slice is the granularity of the window's bookkeeping. A traced run
// alternates slices with the traced boundaries off and on, so the two
// halves of the same run give the tracing overhead.
const slice = 250 * time.Millisecond

// window is what was measured over the measured window.
type window struct {
	elapsed    time.Duration
	completed  int64 // successful requests
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the runtime accounts it
	heapLive   uint64  // after a final GC
	wireBytes  int64

	quarterCPU  [4]time.Duration
	quarterReqs [4]int64
	// Traced runs only: the slices with tracing on and off.
	onCPU, offCPU   time.Duration
	onReqs, offReqs int64

	progStart, progEnd map[string]int64 // program counters at the edges
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func runtimeCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// measureWindow measures the cluster under the running load for length.
func measureWindow(c *cluster, g *generator, length time.Duration, traced bool) window {
	var w window
	n := int(length / slice)
	if n < 4 {
		n = 4
	}
	w.progStart = c.programCounters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, tot0 := runtimeCPU()
	wire0 := c.wireBytes()
	cpu0 := cpuTime()
	ok0 := g.rec.ok.Load()
	g.rec.setWindow(true)
	start := time.Now()

	prevCPU, prevOK := cpu0, ok0
	for i := 0; i < n; i++ {
		on := traced && i%2 == 1
		c.setTracing(on)
		time.Sleep(time.Until(start.Add(time.Duration(i+1) * slice)))
		cpu, ok := cpuTime(), g.rec.ok.Load()
		dc, dr := cpu-prevCPU, ok-prevOK
		q := i * 4 / n
		w.quarterCPU[q] += dc
		w.quarterReqs[q] += dr
		switch {
		case on:
			w.onCPU += dc
			w.onReqs += dr
		case traced:
			w.offCPU += dc
			w.offReqs += dr
		}
		prevCPU, prevOK = cpu, ok
	}
	c.setTracing(false)
	g.rec.setWindow(false)
	w.elapsed = time.Since(start)
	w.cpu = prevCPU - cpu0
	w.completed = prevOK - ok0
	w.wireBytes = c.wireBytes() - wire0
	gc1, tot1 := runtimeCPU()
	w.gcCPU, w.totalCPU = gc1-gc0, tot1-tot0
	runtime.ReadMemStats(&ms1)
	w.mallocs = ms1.Mallocs - ms0.Mallocs
	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcCycles = ms1.NumGC - ms0.NumGC
	w.progEnd = c.programCounters()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	w.heapLive = ms1.HeapAlloc
	return w
}

// programCounters sums the trace counters of every node the cluster
// started, crashed and replaced ones included.
func (c *cluster) programCounters() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	sum := make(map[string]int64, len(c.retired))
	for k, v := range c.retired {
		sum[k] = v
	}
	for _, r := range c.replicas {
		if r.node == nil {
			continue
		}
		for k, v := range r.node.TraceSnapshot().Counters {
			sum[k] += v
		}
	}
	for _, cl := range c.clients {
		for k, v := range cl.TraceSnapshot().Counters {
			sum[k] += v
		}
	}
	return sum
}

// quantile returns the q-quantile of xs (sorted in place), nearest rank.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return per(sum, float64(len(xs)))
}

// trimmedMean is the mean of xs without its largest share cut.
func trimmedMean(xs []float64, cut float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[:len(s)-int(cut*float64(len(s)))])
}

func per(x, reqs float64) float64 {
	if reqs <= 0 {
		return 0
	}
	return x / reqs
}

// endToEnd fills the metrics a user of the system sees.
func endToEnd(m map[string]metric, g *generator, w *window, rc *reconfig, setups []float64) {
	reqs := float64(w.completed)
	r := g.rec
	r.mu.Lock()
	lat := append([]int64(nil), r.lat...)
	vrtt := per(float64(r.vrttNs), float64(r.winOK))
	r.mu.Unlock()
	m["throughput_rps"] = metric{reqs / w.elapsed.Seconds(), "1/s"}
	m["latency_p50_us"] = metric{float64(quantile(lat, 0.50)) / 1e3, "us"}
	m["latency_p99_us"] = metric{float64(quantile(lat, 0.99)) / 1e3, "us"}
	m["cpu_us_per_req"] = metric{per(float64(w.cpu)/1e3, reqs), "us"}
	m["allocs_per_req"] = metric{per(float64(w.mallocs), reqs), "count"}
	m["alloc_bytes_per_req"] = metric{per(float64(w.allocBytes), reqs), "B"}
	m["heap_live_mb"] = metric{float64(w.heapLive) / (1 << 20), "MiB"}
	m["wire_bytes_per_req"] = metric{per(float64(w.wireBytes), reqs), "B"}
	m["vrtt_mean_us"] = metric{vrtt / 1e3, "us"}
	m["failover_gap_ms"] = metric{mean(rc.gaps), "ms"}
	m["rejoin_ms"] = metric{median(rc.rejoins), "ms"}
	m["setup_s"] = metric{median(setups), "s"}
}
