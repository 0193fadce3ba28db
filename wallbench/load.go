package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"versadep/internal/codec"
	"versadep/internal/orb"
	"versadep/internal/replicator"
	"versadep/internal/vtime"
)

func getArgs(key int) []codec.Value { return []codec.Value{codec.Uint(uint64(key))} }

// keyState is what the load generator knows of one key: the value of the
// last acknowledged put. Its lock serializes requests on the key, so a
// get must return exactly that value.
type keyState struct {
	mu      sync.Mutex
	val     []byte // last acknowledged put; initially the seeded value
	unknown bool   // a put failed, so the stored value is unknown
	written bool   // some put was acknowledged
}

// recorder collects request outcomes. Latency samples and virtual-time
// aggregates cover the measured window only.
type recorder struct {
	ok, failed atomic.Int64 // every request after boot
	mismatches atomic.Int64 // gets that returned a wrong value

	mu      sync.Mutex
	errs    []string // the first few request errors
	window  bool     // the measured window is running
	lat     []int64  // window latencies in ns; failures are math.MaxInt64
	winOK   int64
	vrttNs  int64
	ledger  [5]int64 // by vtime.Component
	lags    []int64  // open-loop lateness in ns, window only
	watchOn bool
	watchAt time.Time
	watchCh chan time.Time
}

func (r *recorder) setWindow(on bool) {
	r.mu.Lock()
	r.window = on
	r.mu.Unlock()
}

// watch arms a one-shot notification: the completion instant of the
// first request issued at or after from.
func (r *recorder) watch(from time.Time) <-chan time.Time {
	ch := make(chan time.Time, 1)
	r.mu.Lock()
	r.watchOn, r.watchAt, r.watchCh = true, from, ch
	r.mu.Unlock()
	return ch
}

func (r *recorder) record(issued, due, done time.Time, out *orb.Outcome, err error) {
	if err != nil {
		r.failed.Add(1)
	} else {
		r.ok.Add(1)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil && len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("%v after %v", err, done.Sub(issued)))
		progress("request issued %v ago failed: %v", done.Sub(issued), err)
	}
	if err == nil && r.watchOn && !issued.Before(r.watchAt) {
		r.watchOn = false
		r.watchCh <- done
	}
	if !r.window {
		return
	}
	if err != nil {
		r.lat = append(r.lat, math.MaxInt64)
		return
	}
	r.lat = append(r.lat, int64(done.Sub(due)))
	r.winOK++
	r.vrttNs += int64(out.RTT())
	for _, c := range vtime.Components() {
		r.ledger[c] += int64(out.Ledger.Of(c))
	}
}

func (r *recorder) lag(d time.Duration) {
	r.mu.Lock()
	if r.window {
		r.lags = append(r.lags, int64(d))
	}
	r.mu.Unlock()
}

// generator drives the cluster's clients with the workload's seeded
// request mix and checks every reply.
type generator struct {
	sp   *spec
	seed int64
	rec  *recorder
	keys []keyState
	stop chan struct{}
	wg   sync.WaitGroup
	// gate is read-held around every request; holding it for writing
	// waits for the requests in flight and holds back new ones.
	gate sync.RWMutex
}

func newGenerator(sp *spec, seed int64) *generator {
	g := &generator{sp: sp, seed: seed, rec: &recorder{}, keys: make([]keyState, sp.keys),
		stop: make(chan struct{})}
	ref := newKVApp(sp.keys, seed)
	for k := range g.keys {
		g.keys[k].val = ref.value(k)
	}
	// Window samples for a generous run; the slices grow if needed.
	g.rec.lat = make([]int64, 0, 1<<16)
	return g
}

// invoke sends one put or get on key, checks a get's reply and records
// the outcome. Latency counts from due; a zero due means from the send.
func (g *generator) invoke(cl *replicator.ClientNode, key int, val []byte, now vtime.Time, due time.Time) (*orb.Outcome, error) {
	g.gate.RLock()
	defer g.gate.RUnlock()
	ks := &g.keys[key]
	ks.mu.Lock()
	defer ks.mu.Unlock()
	issued := time.Now()
	if due.IsZero() {
		due = issued
	}
	var out *orb.Outcome
	var err error
	if val != nil {
		out, err = cl.ORB().Invoke(objectName, "put",
			[]codec.Value{codec.Uint(uint64(key)), codec.Bytes(val)}, now)
		if err != nil {
			ks.unknown = true
		} else {
			copy(ks.val, val)
			ks.written = true
		}
	} else {
		out, err = cl.ORB().Invoke(objectName, "get", getArgs(key), now)
		if err == nil && !ks.unknown && (len(out.Results) != 1 || !bytes.Equal(out.Results[0].Byt, ks.val)) {
			g.rec.mismatches.Add(1)
		}
	}
	g.rec.record(issued, due, time.Now(), out, err)
	return out, err
}

// pause waits for the requests in flight and holds back new ones until
// the returned function is called.
func (g *generator) pause() (resume func()) {
	g.gate.Lock()
	return g.gate.Unlock
}

// current returns the node worker i sends through now, retiring the
// node it used before if the cluster replaced it.
func (g *generator) current(c *cluster, i int, last *replicator.ClientNode) *replicator.ClientNode {
	cl := c.client(i)
	if last != nil && last != cl {
		c.retireClient(last)
	}
	return cl
}

// startClosedLoop runs one closed-loop caller per client node: each
// blocks on its request, as the paper's clients do, over a key range of
// its own.
func (g *generator) startClosedLoop(c *cluster) {
	per := g.sp.keys / len(c.slots)
	for i := range c.slots {
		g.wg.Add(1)
		go func(i int) {
			defer g.wg.Done()
			var cl *replicator.ClientNode
			rng := rand.New(rand.NewSource(g.seed*7919 + int64(i)))
			val := make([]byte, valueBytes)
			var vt vtime.Time
			for {
				select {
				case <-g.stop:
					return
				default:
				}
				key := i*per + rng.Intn(per)
				var v []byte
				if rng.Float64() < g.sp.putFrac {
					rng.Read(val)
					v = val
				}
				cl = g.current(c, i, cl)
				out, err := g.invoke(cl, key, v, vt, time.Time{})
				if err == nil && out.DoneVT.After(vt) {
					vt = out.DoneVT
				}
			}
		}(i)
	}
}

// openJob is one scheduled open-loop request.
type openJob struct {
	due time.Time
	key int
	val []byte // nil for a get
}

// startOpenLoop sends requests on a fixed schedule, each through the
// first free client node, so at most one request per client is in
// flight (the client ORB numbers requests for one caller at a time).
// Latency counts from each request's due time: requests due during a
// stall wait for a free client, and that wait is part of their latency.
func (g *generator) startOpenLoop(c *cluster) {
	jobs := make(chan openJob)
	for i := range c.slots {
		g.wg.Add(1)
		go func(i int) {
			defer g.wg.Done()
			var cl *replicator.ClientNode
			var vt vtime.Time
			for j := range jobs {
				cl = g.current(c, i, cl)
				out, err := g.invoke(cl, j.key, j.val, vt, j.due)
				if err == nil && out.DoneVT.After(vt) {
					vt = out.DoneVT
				}
			}
		}(i)
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer close(jobs)
		rng := rand.New(rand.NewSource(g.seed * 7919))
		perm := rng.Perm(g.sp.keys)
		interval := time.Duration(float64(time.Second) / g.sp.rate)
		start := time.Now()
		for s := 0; ; s++ {
			j := openJob{due: start.Add(time.Duration(s) * interval), key: perm[s%len(perm)]}
			if rng.Float64() < g.sp.putFrac {
				j.val = make([]byte, valueBytes)
				rng.Read(j.val)
			}
			if d := time.Until(j.due); d > 0 {
				select {
				case <-g.stop:
					return
				case <-time.After(d):
				}
			}
			select {
			case <-g.stop:
				return
			case jobs <- j:
				g.rec.lag(time.Since(j.due))
			}
		}
	}()
}

func (g *generator) halt() {
	close(g.stop)
	g.wg.Wait()
}

// readBack gets every key some put was acknowledged on and counts the
// keys whose value differs from the last acknowledged put.
func (g *generator) readBack(cl *replicator.ClientNode) (attempted, lost int) {
	for k := range g.keys {
		ks := &g.keys[k]
		if !ks.written || ks.unknown {
			continue
		}
		attempted++
		out, err := cl.ORB().Invoke(objectName, "get", getArgs(k), 0)
		if err != nil || len(out.Results) != 1 || !bytes.Equal(out.Results[0].Byt, ks.val) {
			lost++
		}
	}
	return attempted, lost
}
