// Command wallbench is versadep's wall-clock benchmark. It boots one
// workload's replica group in-process, drives it from this process with
// at most two clients, checks the outputs, and prints the workload's
// metrics: the end-to-end metrics with -trace 0, the per-layer metrics
// with -trace 1. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//	bash wallbench/run.sh --workload passive-steady --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRounds is how many times a run boots its cluster; setup_s is the
// median, and the last cluster is the one measured.
const setupRounds = 3

// warmup runs load before the window, so lazy set-up is not timed.
const warmup = time.Second

// runLimit stops a wedged run well inside the benchmark's 180 s budget.
const runLimit = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: passive-steady, active-tcp or reconfig-churn")
		seed    = flag.Int64("seed", 1, "seed of the generated requests and state")
		seconds = flag.Int("seconds", 10, "length of the measured window in seconds")
		traced  = flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
		root    = flag.String("root", ".", "root of the versadep checkout (for provenance)")
	)
	flag.Parse()
	sp, err := findSpec(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("want -seconds ≥ 1 and -trace 0 or 1"))
	}
	time.AfterFunc(runLimit, func() {
		buf := make([]byte, 1<<20)
		os.Stderr.Write(buf[:runtime.Stack(buf, true)])
		fatal(fmt.Errorf("run exceeded %v", runLimit))
	})

	prov := provenance(*root, sp.name, *seed, *seconds, *traced == 1)
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(line))

	res, report, err := run(sp, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fatal(err)
	}
	fmt.Print(report)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-44s %16.4f %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// progress reports the run's phases on standard error.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wallbench: %7.3fs "+format+"\n", append([]any{time.Since(started).Seconds()}, args...)...)
}

var started = time.Now()

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wallbench:", err)
	os.Exit(1)
}

// run performs one benchmark run and returns its result and a
// human-readable report of its checks.
func run(sp *spec, seed int64, window time.Duration, traced bool) (*result, string, error) {
	baseGoroutines := runtime.NumGoroutine()

	var setups []float64
	var c *cluster
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		cand := newCluster(sp, seed, traced)
		if err := cand.boot(); err != nil {
			cand.shutdown()
			return nil, "", fmt.Errorf("boot %s: %w", sp.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRounds-1 {
			cand.shutdown()
		} else {
			c = cand
		}
	}

	progress("set up in %.3fs (median of %d)", median(setups), setupRounds)
	g := newGenerator(sp, seed)
	if sp.openLoop() {
		g.startOpenLoop(c)
	} else {
		g.startClosedLoop(c)
	}
	time.Sleep(warmup)

	rc := reconfig{settle: sp.settle}
	churnDone := make(chan struct{})
	stopChurn := make(chan struct{})
	if sp.openLoop() {
		go func() {
			defer close(churnDone)
			for {
				select {
				case <-stopChurn:
					return
				default:
				}
				rc.cycle(c, g)
			}
		}()
	}

	w := measureWindow(c, g, window, traced)
	progress("window: %d requests in %v", w.completed, w.elapsed)

	if sp.openLoop() {
		close(stopChurn)
		<-churnDone
	} else {
		for i := 0; i < sp.probeCycles; i++ {
			rc.cycle(c, g)
		}
	}
	_ = rc.switchBurst(c, g, roundTripsAfter)
	g.halt()
	progress("%d reconfiguration cycles done", rc.cycles)
	progRun := c.programCounters()

	// Every failed request, wrong reply, lost put, failed reconfiguration
	// and failed end-of-run check counts as one failure.
	failed := g.rec.failed.Load() + g.rec.mismatches.Load() + int64(rc.failed)
	var report strings.Builder
	check := func(name string, bad int64, err error) {
		failed += bad
		if err != nil {
			fmt.Fprintf(&report, "check %-28s FAIL: %v\n", name, err)
			return
		}
		fmt.Fprintf(&report, "check %-28s ok\n", name)
	}
	for _, e := range rc.errs {
		fmt.Fprintf(&report, "reconfiguration error: %s\n", e)
	}
	if n := g.rec.failed.Load(); n > 0 {
		check("requests-succeed", 0, fmt.Errorf("%d requests failed, first: %s", n, strings.Join(g.rec.errs, "; ")))
	} else {
		check("requests-succeed", 0, nil)
	}
	if n := g.rec.mismatches.Load(); n > 0 {
		check("gets-return-last-put", 0, fmt.Errorf("%d gets returned a wrong value", n))
	} else {
		check("gets-return-last-put", 0, nil)
	}
	if rc.failed > 0 {
		check("reconfigurations-complete", 0, fmt.Errorf("%d of %d failed", rc.failed, rc.attempted))
	} else {
		check("reconfigurations-complete", 0, nil)
	}
	err := c.quiesce()
	check("replicas-identical-state", boolInt(err != nil), err)
	readAttempted, lost := g.readBack(c.client(0))
	err = nil
	if lost > 0 {
		err = fmt.Errorf("%d of %d keys do not hold their last acknowledged put", lost, readAttempted)
	}
	check("acknowledged-puts-readable", int64(lost), err)
	c.shutdown()
	leaked := awaitGoroutines(baseGoroutines, 5*time.Second)
	err = nil
	if leaked > 0 {
		err = fmt.Errorf("%d goroutines still running after shutdown", leaked)
	}
	check("no-goroutines-left", boolInt(leaked > 0), err)

	res := &result{
		Attempted: g.rec.ok.Load() + g.rec.failed.Load() + int64(readAttempted) + int64(rc.attempted),
		Failed:    failed,
		Correct:   failed == 0,
		Metrics:   make(map[string]metric),
	}
	if traced {
		layerMetrics(res.Metrics, c, g, &w, &rc, progRun, leaked)
	} else {
		endToEnd(res.Metrics, g, &w, &rc, setups)
	}
	fmt.Fprintf(&report, "workload %s: %d requests in the window, %d reconfiguration cycles\n",
		sp.name, w.completed, rc.cycles)
	return res, report.String(), nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// awaitGoroutines waits until at most base goroutines run and returns
// how many more than base are left at the deadline.
func awaitGoroutines(base int, limit time.Duration) int {
	deadline := time.Now().Add(limit)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 || time.Now().After(deadline) {
			if n < 0 {
				n = 0
			}
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}
