package main

import (
	"fmt"
	"sort"
	"time"

	"versadep/internal/replication"
)

// spec is one workload: the group, its transport and the load on it.
type spec struct {
	name    string
	tcp     bool
	style   replication.Style
	keys    int     // state is keys × 64 B
	putFrac float64 // share of puts in the request mix
	voting  bool    // majority voting over the replicas' replies
	// clients client nodes, each with one request in flight at a time.
	clients int
	// rate > 0 makes the load open-loop: requests are due at this many
	// per second, and reconfiguration cycles run for the whole window.
	// Otherwise each client is a closed-loop caller.
	rate float64
	// probeCycles reconfiguration cycles follow the steady window of a
	// closed-loop workload, measured apart from it.
	probeCycles int
	// settle is the steady service after each cycle's rejoin.
	settle time.Duration
}

func (s *spec) openLoop() bool { return s.rate > 0 }

// Every workload runs a group of three replicas that checkpoints every
// five requests in the passive styles, the paper's default.
const (
	groupSize       = 3
	checkpointEvery = 5
)

var workloads = []*spec{
	{
		// The paper's default configuration on the in-memory fabric.
		name: "passive-steady", style: replication.WarmPassive,
		keys: 640, putFrac: 0.75, clients: 2, probeCycles: 12, settle: 300 * time.Millisecond,
	},
	{
		// Same layers used differently, over real sockets.
		name: "active-tcp", tcp: true, style: replication.Active,
		keys: 640, putFrac: 0.25, voting: true, clients: 2, probeCycles: 12,
		settle: 300 * time.Millisecond,
	},
	{
		// Membership, failover, state transfer and style switches under
		// scheduled load.
		name: "reconfig-churn", style: replication.WarmPassive,
		keys: 2048, putFrac: 0.75, clients: 2, rate: 500, settle: 1500 * time.Millisecond,
	},
}

func findSpec(name string) (*spec, error) {
	var names []string
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// otherStyle is the style a switch burst alternates with.
func otherStyle(s replication.Style) replication.Style {
	if s == replication.Active {
		return replication.WarmPassive
	}
	return replication.Active
}

// Style switches come in round trips (to the other style and back), so
// every burst ends in the workload's own style: a short burst in each
// reconfiguration cycle, and a long one after the measured window. Round
// trips have two peaks and a few multi-millisecond stalls, so a run
// reports the mean of all but the slowest 5%.
const (
	roundTripsPerCycle = 2
	roundTripsAfter    = 64
)

// reconfig accumulates the outcomes of reconfiguration cycles.
type reconfig struct {
	settle    time.Duration // steady service that closes each cycle
	cycles    int
	attempted int
	failed    int
	// gaps, ms: crash call → first reply to a request sent after it. The
	// failure detector fires on one of two heartbeat phases, so the gaps
	// have two peaks; the run reports their mean.
	gaps    []float64
	rejoins []float64 // ms, AddReplica → converged view with state
	// switches holds round trips, ms: a switch to the other style and one
	// back, each from RequestSwitch until every live replica switched.
	// Only passive → active waits for a closing checkpoint, so the round
	// trip, not the single switch, is the unit that repeats.
	switches []float64
	errs     []string
}

func (r *reconfig) fail(err error) {
	progress("cycle %d failed: %v", r.cycles, err)
	r.failed++
	r.errs = append(r.errs, err.Error())
}

// quietBeforeCrash is how long no request is in flight before a crash.
const quietBeforeCrash = 20 * time.Millisecond

// cycle runs one reconfiguration cycle: a burst of style switches, a
// crash of the primary, the gap until a request sent after the crash
// completes, a replica added with state transfer, and steady service.
// The switches open the cycle, a settle period after the previous join:
// a passive → active switch requested within milliseconds of a join can
// leave the joiner waiting forever for the closing checkpoint.
func (r *reconfig) cycle(c *cluster, g *generator) {
	r.cycles++
	r.attempted += 2
	if err := r.switchBurst(c, g, roundTripsPerCycle); err != nil {
		return
	}
	// The crash falls after a short pause in the load: a primary that
	// crashes within a millisecond or so of replying can lose the put it
	// acknowledged, as its backups may not hold the request yet.
	before := len(c.live())
	resume := g.pause()
	time.Sleep(quietBeforeCrash)
	at, err := c.crashPrimary()
	first := g.rec.watch(time.Now())
	resume()
	if err != nil {
		r.fail(err)
		return
	}
	select {
	case done := <-first:
		r.gaps = append(r.gaps, ms(done.Sub(at)))
	case <-time.After(convergeTimeout):
		r.fail(fmt.Errorf("no reply within %v of crashing the primary", convergeTimeout))
		return
	}
	if err := c.waitConverged(before-1, nil); err != nil {
		r.fail(err)
		return
	}
	start := time.Now()
	if err := c.addReplica(); err != nil {
		r.fail(fmt.Errorf("add replica: %w", err))
		return
	}
	r.rejoins = append(r.rejoins, ms(time.Since(start)))
	if err := c.refreshClients(); err != nil {
		r.fail(err)
		return
	}
	progress("cycle %d: gap %.1fms, rejoin %.1fms", r.cycles, r.gaps[len(r.gaps)-1], r.rejoins[len(r.rejoins)-1])
	time.Sleep(r.settle)
}

// switchBurst times n round trips of style switches. The load is held
// back meanwhile: switches between requests in flight can lose
// acknowledged puts or answer gets with stale values.
func (r *reconfig) switchBurst(c *cluster, g *generator, n int) error {
	resume := g.pause()
	defer resume()
	r.attempted += 2 * n
	base := c.live()[0].node.Engine().Style()
	for i := 0; i < n; i++ {
		there, err := c.switchTo(otherStyle(base))
		if err != nil {
			r.fail(err)
			return err
		}
		back, err := c.switchTo(base)
		if err != nil {
			r.fail(err)
			return err
		}
		r.switches = append(r.switches, ms(there+back))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
