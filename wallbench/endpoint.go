package main

import (
	"sync"
	"sync/atomic"
	"time"

	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// wireCounters is the traced transport boundary, shared by every endpoint
// of a cluster. Total bytes are always counted (they are the wire-byte
// figure on transports without their own statistics); the per-protocol
// split, send time and the payload sample only while on.
type wireCounters struct {
	bytes atomic.Int64

	on     atomic.Bool
	msgs   [4]atomic.Int64 // by protocol byte (transport.ProtoGCS …)
	pbytes [4]atomic.Int64
	sendNs atomic.Int64

	mu    sync.Mutex
	sends int
	// capture samples outbound payloads as the transport sees them: the
	// demux's protocol byte, the protocol frame and the checksum trailer.
	capture [][]byte
}

const (
	// captureEvery keeps one in this many traced sends.
	captureEvery = 7
	// captureMax bounds the sample.
	captureMax = 4096
)

func (w *wireCounters) count(p []byte, dests int) (start time.Time, traced bool) {
	w.bytes.Add(int64(len(p) * dests))
	if !w.on.Load() {
		return time.Time{}, false
	}
	proto := 0
	if len(p) > 0 && int(p[0]) < len(w.msgs) {
		proto = int(p[0])
	}
	w.msgs[proto].Add(int64(dests))
	w.pbytes[proto].Add(int64(len(p) * dests))
	w.mu.Lock()
	w.sends++
	if w.sends%captureEvery == 0 && len(w.capture) < captureMax {
		w.capture = append(w.capture, append([]byte(nil), p...))
	}
	w.mu.Unlock()
	return time.Now(), true
}

func (w *wireCounters) done(start time.Time, traced bool) {
	if traced {
		w.sendNs.Add(int64(time.Since(start)))
	}
}

// countingEndpoint wraps the endpoint a node is started on.
type countingEndpoint struct {
	transport.MultiEndpoint
	w *wireCounters
}

func (e countingEndpoint) Send(to string, p []byte, at vtime.Time) error {
	start, traced := e.w.count(p, 1)
	err := e.MultiEndpoint.Send(to, p, at)
	e.w.done(start, traced)
	return err
}

func (e countingEndpoint) SendMulticast(tos []string, p []byte, at vtime.Time) error {
	start, traced := e.w.count(p, len(tos))
	err := e.MultiEndpoint.SendMulticast(tos, p, at)
	e.w.done(start, traced)
	return err
}

func (e countingEndpoint) SendControl(to string, p []byte, at vtime.Time) error {
	start, traced := e.w.count(p, 1)
	err := e.MultiEndpoint.SendControl(to, p, at)
	e.w.done(start, traced)
	return err
}

// ExcludeFraming forwards the demux's framing declaration, so wrapping a
// simnet endpoint leaves its byte accounting and virtual costs unchanged.
func (e countingEndpoint) ExcludeFraming(n int) {
	if fx, ok := e.MultiEndpoint.(interface{ ExcludeFraming(int) }); ok {
		fx.ExcludeFraming(n)
	}
}

// inboxSampler records len(Recv()) of every registered endpoint once per
// millisecond while its wire counters are on.
type inboxSampler struct {
	mu      sync.Mutex
	eps     []transport.MultiEndpoint
	samples []int64
	stop    chan struct{}
	done    chan struct{}
}

func startInboxSampler(w *wireCounters) *inboxSampler {
	s := &inboxSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if !w.on.Load() {
					continue
				}
				s.mu.Lock()
				for _, ep := range s.eps {
					s.samples = append(s.samples, int64(len(ep.Recv())))
				}
				s.mu.Unlock()
			}
		}
	}()
	return s
}

func (s *inboxSampler) add(ep transport.MultiEndpoint) {
	s.mu.Lock()
	s.eps = append(s.eps, ep)
	s.mu.Unlock()
}

func (s *inboxSampler) close() {
	close(s.stop)
	<-s.done
}
