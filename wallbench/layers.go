package main

import (
	"errors"
	"runtime"
	"time"

	"versadep/internal/codec"
	"versadep/internal/orb"
	"versadep/internal/replication"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// layerMetrics fills the per-layer metrics of a traced run. Counts made
// at the traced boundaries are divided by the requests completed while
// tracing was on; the program's own counters by the requests of the
// window, or by the reconfiguration events they belong to.
func layerMetrics(m map[string]metric, c *cluster, g *generator, w *window, rc *reconfig,
	progRun map[string]int64, leaked int) {
	on := float64(w.onReqs)
	wc := c.wire
	var msgs, byts int64
	for p := range wc.msgs {
		msgs += wc.msgs[p].Load()
		byts += wc.pbytes[p].Load()
	}
	gcsP, cliP := int(transport.ProtoGCS), int(transport.ProtoGroupClient)
	m["transport.msgs_per_req"] = metric{per(float64(msgs), on), "1/req"}
	m["transport.bytes_per_req"] = metric{per(float64(byts), on), "B/req"}
	m["transport.gcs_msgs_per_req"] = metric{per(float64(wc.msgs[gcsP].Load()), on), "1/req"}
	m["transport.gcs_bytes_per_req"] = metric{per(float64(wc.pbytes[gcsP].Load()), on), "B/req"}
	m["transport.client_msgs_per_req"] = metric{per(float64(wc.msgs[cliP].Load()), on), "1/req"}
	m["transport.client_bytes_per_req"] = metric{per(float64(wc.pbytes[cliP].Load()), on), "B/req"}
	m["transport.send_us_per_req"] = metric{per(float64(wc.sendNs.Load())/1e3, on), "us/req"}
	c.inbox.mu.Lock()
	m["transport.inbox_depth_p99"] = metric{float64(quantile(c.inbox.samples, 0.99)), "count"}
	c.inbox.mu.Unlock()

	a := c.apps
	m["app.execs_per_req"] = metric{per(float64(a.execs.Load()), on), "1/req"}
	m["app.exec_us_per_req"] = metric{per(float64(a.execNs.Load())/1e3, on), "us/req"}
	m["app.state_captures_per_req"] = metric{per(float64(a.captures.Load()), on), "1/req"}
	m["app.state_capture_us_per_req"] = metric{per(float64(a.captureNs.Load())/1e3, on), "us/req"}
	m["app.state_bytes"] = metric{float64(a.lastStateBytes.Load()), "B"}
	m["app.restores"] = metric{per(float64(a.restores.Load()), on), "1/req"}
	m["app.restore_us"] = metric{per(float64(a.restoreNs.Load())/1e3, float64(a.restores.Load())), "us"}

	for name, v := range replayDecoders(wc.capture) {
		m[name] = v
	}

	reqs := float64(w.completed)
	win := func(key string) float64 { return float64(w.progEnd[key] - w.progStart[key]) }
	run := func(key string) float64 { return float64(progRun[key] - w.progStart[key]) }
	m["transport.corrupt_frames_dropped"] = metric{run("transport.corrupt_frames_dropped") + float64(c.corruptFrames()), "count"}
	m["orb.retransmits_per_kreq"] = metric{per(1000*win("orb.retransmits"), reqs), "1/kreq"}
	m["orb.timeouts"] = metric{run("orb.timeouts"), "count"}
	m["interceptor.duplicates_suppressed_per_req"] = metric{per(win("intercept.duplicates_suppressed"), reqs), "1/req"}
	m["gcs.retransmits_per_kreq"] = metric{per(1000*win("gcs.retransmits"), reqs), "1/kreq"}
	m["gcs.nacks_per_kreq"] = metric{per(1000*win("gcs.nacks_sent"), reqs), "1/kreq"}
	m["gcs.view_changes"] = metric{per(run("gcs.view_changes"), float64(rc.cycles)), "1/cycle"}
	m["replication.checkpoints_per_req"] = metric{per(win("replication.checkpoints"), reqs), "1/req"}
	m["replication.failover_replay_len"] = metric{per(run("replication.failover_replay_len"), run("replication.failovers")), "req/failover"}
	m["replication.transfer_bytes_sent"] = metric{per(run("replication.transfer_bytes_sent"), float64(len(rc.rejoins))), "B/rejoin"}
	m["replication.switch_done_frac"] = metric{per(run("replication.switch_dones"), run("replication.switch_starts")), "frac"}
	m["replication.switch_ms"] = metric{trimmedMean(rc.switches, 0.05), "ms"}

	r := g.rec
	r.mu.Lock()
	for _, comp := range []struct {
		name string
		c    vtime.Component
	}{{"vtime.orb_us", vtime.ComponentORB}, {"vtime.gc_us", vtime.ComponentGC},
		{"vtime.replicator_us", vtime.ComponentReplicator}, {"vtime.app_us", vtime.ComponentApp}} {
		m[comp.name] = metric{per(float64(r.ledger[comp.c])/1e3, float64(r.winOK)), "us"}
	}
	lags := append([]int64(nil), r.lags...)
	r.mu.Unlock()
	m["loadgen.lag_p99_us"] = metric{float64(quantile(lags, 0.99)) / 1e3, "us"}

	cpuPer := func(cpu time.Duration, n int64) float64 { return per(float64(cpu)/1e3, float64(n)) }
	m["replicator.cost_drift_ratio"] = metric{per(cpuPer(w.quarterCPU[3], w.quarterReqs[3]),
		cpuPer(w.quarterCPU[1], w.quarterReqs[1])), "ratio"}
	m["runtime.gc_cpu_frac"] = metric{per(w.gcCPU, w.totalCPU), "frac"}
	m["runtime.gc_cycles_per_kreq"] = metric{per(1000*float64(w.gcCycles), reqs), "1/kreq"}
	m["runtime.goroutines_end"] = metric{float64(leaked), "count"}
	onCPU := cpuPer(w.onCPU, w.onReqs)
	m["trace.cpu_us_per_req"] = metric{onCPU, "us/req"}
	m["trace.overhead_frac"] = metric{per(onCPU, cpuPer(w.offCPU, w.offReqs)) - 1, "frac"}
}

// replayDecoders feeds the sampled wire payloads through the public
// decoders of each layer and reports time and allocations per call.
func replayDecoders(sealed [][]byte) map[string]metric {
	var msgs, requests, replies, values [][]byte
	var sealedBytes int
	for _, p := range sealed {
		sealedBytes += len(p)
		body, err := codec.VerifyChecksum(p)
		if err != nil || len(body) < 2 {
			continue
		}
		payload, err := gcsPayload(body[1:])
		if err != nil || len(payload) == 0 {
			continue
		}
		if _, _, err := orb.PeekReplyID(payload); err == nil {
			replies = append(replies, payload)
			continue
		}
		if _, err := replication.Decode(payload); err != nil {
			continue
		}
		msgs = append(msgs, payload)
		if viop, ok := replication.PeekRequestViop(payload); ok {
			requests = append(requests, viop)
			if req, err := orb.DecodeRequest(viop); err == nil {
				values = append(values, codec.EncodeValue(codec.List(req.Args...)))
			}
		}
	}
	out := make(map[string]metric)
	ns, _ := timeDecode(sealed, func(b []byte) error { _, err := codec.VerifyChecksum(b); return err })
	out["codec.checksum_ns_per_kb"] = metric{per(ns*float64(len(sealed)), float64(sealedBytes)/1024), "ns/KiB"}
	ns, allocs := timeDecode(values, func(b []byte) error { _, err := codec.DecodeValue(b); return err })
	out["codec.value_decode_ns"] = metric{ns, "ns"}
	out["codec.value_decode_allocs"] = metric{allocs, "count"}
	ns, allocs = timeDecode(requests, func(b []byte) error { _, err := orb.DecodeRequest(b); return err })
	out["orb.request_decode_ns"] = metric{ns, "ns"}
	out["orb.request_decode_allocs"] = metric{allocs, "count"}
	ns, _ = timeDecode(replies, func(b []byte) error { _, err := orb.DecodeReply(b); return err })
	out["orb.reply_decode_ns"] = metric{ns, "ns"}
	ns, allocs = timeDecode(msgs, func(b []byte) error { _, err := replication.Decode(b); return err })
	out["replication.msg_decode_ns"] = metric{ns, "ns"}
	out["replication.msg_decode_allocs"] = metric{allocs, "count"}
	return out
}

// replayTime is how long each decoder is replayed.
const replayTime = 100 * time.Millisecond

// timeDecode replays decode over the samples and returns the mean time
// and allocations per call.
func timeDecode(samples [][]byte, decode func([]byte) error) (nsPerOp, allocsPerOp float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, b := range samples {
		_ = decode(b)
	}
	runtime.ReadMemStats(&ms1)
	allocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(samples))
	ops := 0
	start := time.Now()
	for time.Since(start) < replayTime {
		for _, b := range samples {
			_ = decode(b)
		}
		ops += len(samples)
	}
	return float64(time.Since(start)) / float64(ops), allocsPerOp
}

var errShortFrame = errors.New("short group-communication frame")

// gcsPayload extracts the payload field of a group-communication frame.
// The walk mirrors the frame layout of internal/gcs (kind, view id, seq,
// origin, origin seq, level, members, seqs, virtual send time, ledger,
// payload), written with the codec primitives.
func gcsPayload(frame []byte) ([]byte, error) {
	d := codec.NewDecoder(frame)
	if _, err := d.Uint8(); err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		if _, err := d.Uint64(); err != nil {
			return nil, err
		}
	}
	if _, err := d.String(); err != nil {
		return nil, err
	}
	if _, err := d.Uint64(); err != nil {
		return nil, err
	}
	if _, err := d.Uint8(); err != nil {
		return nil, err
	}
	n, err := d.Uint32()
	if err != nil || int(n) > d.Remaining() {
		return nil, errShortFrame
	}
	for i := uint32(0); i < n; i++ {
		if _, err := d.String(); err != nil {
			return nil, err
		}
	}
	// Sequence numbers, then the virtual send time, then the ledger
	// slots: all fixed-width 8-byte fields.
	if n, err = d.Uint32(); err != nil || int(n) > d.Remaining()/8 {
		return nil, errShortFrame
	}
	for i := uint32(0); i < n; i++ {
		if _, err := d.Uint64(); err != nil {
			return nil, err
		}
	}
	if _, err := d.Int64(); err != nil {
		return nil, err
	}
	if n, err = d.Uint32(); err != nil || int(n) > d.Remaining()/8 {
		return nil, errShortFrame
	}
	for i := uint32(0); i < n; i++ {
		if _, err := d.Int64(); err != nil {
			return nil, err
		}
	}
	return d.BytesCopy()
}
