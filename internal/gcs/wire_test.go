package gcs

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"versadep/internal/codec"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// encodeFrame is f's encoding on its own, without the transport framing
// sealFrame adds around it.
func encodeFrame(f *frame) []byte {
	e := codec.NewEncoder(frameSize(f))
	putFrame(e, f)
	return e.Bytes()
}

// sentWire is one send a recordingConn saw.
type sentWire struct {
	to      string
	wire    []byte
	control bool
}

// recordingConn is a transport.Conn that seals like the demux and records
// every send instead of transmitting it.
type recordingConn struct {
	addr  string
	proto byte

	mu   sync.Mutex
	sent []sentWire
}

func (c *recordingConn) Addr() string { return c.addr }

func (c *recordingConn) Seal(frame []byte) []byte {
	frame[0] = c.proto
	return codec.AppendChecksum(frame)
}

func (c *recordingConn) record(to string, wire []byte, control bool) error {
	c.mu.Lock()
	c.sent = append(c.sent, sentWire{to: to, wire: wire, control: control})
	c.mu.Unlock()
	return nil
}

func (c *recordingConn) Send(to string, wire []byte, _ vtime.Time) error {
	return c.record(to, wire, false)
}

func (c *recordingConn) SendMulticast(tos []string, wire []byte, _ vtime.Time) error {
	for _, to := range tos {
		_ = c.record(to, wire, false)
	}
	return nil
}

func (c *recordingConn) SendControl(to string, wire []byte, _ vtime.Time) error {
	return c.record(to, wire, true)
}

func (c *recordingConn) take() []sentWire {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.sent
	c.sent = nil
	return out
}

// directFrame is a 40 KB direct frame: a checkpoint's state on its way to
// one backup.
func directFrame() *frame {
	var led vtime.Ledger
	led.Charge(vtime.ComponentGC, 25*vtime.Microsecond)
	return &frame{Kind: kDirect, Origin: "ra", OSeq: 12, SentVT: vtime.Time(99),
		Ledger: led, Payload: bytes.Repeat([]byte{0x5a}, 40<<10)}
}

// TestEncodeFrameOneAllocation pins the exact frame sizing: one
// allocation with no spare capacity, for the plain encoding and for the
// sealed transport frame alike.
func TestEncodeFrameOneAllocation(t *testing.T) {
	f := directFrame()
	var b []byte
	if allocs := testing.AllocsPerRun(50, func() { b = encodeFrame(f) }); allocs != 1 {
		t.Fatalf("encodeFrame made %v allocations, want 1", allocs)
	}
	if cap(b) != len(b) {
		t.Fatalf("encodeFrame: cap %d != len %d", cap(b), len(b))
	}
	conn := &recordingConn{addr: "ra", proto: byte(transport.ProtoGroupClient)}
	if allocs := testing.AllocsPerRun(50, func() { b = sealFrame(conn, f) }); allocs != 1 {
		t.Fatalf("sealFrame made %v allocations, want 1", allocs)
	}
	if cap(b) != len(b) || len(b) != transport.Headroom+frameSize(f)+codec.SealOverhead {
		t.Fatalf("sealFrame: len %d cap %d for a %d-byte frame", len(b), cap(b), frameSize(f))
	}
	if !bytes.Equal(b[transport.Headroom:len(b)-codec.SealOverhead], encodeFrame(f)) {
		t.Fatal("sealed frame body differs from encodeFrame")
	}
}

// TestFrameSizeExact checks frameSize against every compat frame shape,
// with and without a group stamp.
func TestFrameSizeExact(t *testing.T) {
	for _, f := range compatFrames() {
		for _, g := range []uint32{0, 5} {
			f.Group = g
			if n := len(encodeFrame(f)); n != frameSize(f) {
				t.Errorf("kind %d group %d: encoded %d bytes, frameSize %d", f.Kind, g, n, frameSize(f))
			}
		}
	}
	if n := len(encodeFrameList(compatFrames())); n != cap(encodeFrameList(compatFrames())) {
		t.Errorf("encodeFrameList: len %d != cap", n)
	}
}

// TestDecodeFrameAliasesInput checks that Payload and Aux point into the
// received bytes and that appending to them leaves the bytes untouched.
func TestDecodeFrameAliasesInput(t *testing.T) {
	src := directFrame()
	src.Aux = []byte("aux")
	b := encodeFrame(src)
	f, err := decodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	// The frame ends: payload, aux length, aux, left count.
	payloadAt := len(b) - 4 - len(src.Aux) - 4 - len(src.Payload)
	if &f.Payload[0] != &b[payloadAt] {
		t.Fatal("decodeFrame copied Payload instead of aliasing the input")
	}
	if &f.Aux[0] != &b[len(b)-4-len(src.Aux)] {
		t.Fatal("decodeFrame copied Aux")
	}
	before := append([]byte(nil), b...)
	_ = append(f.Payload, 1, 2, 3, 4)
	_ = append(f.Aux, 9)
	if !bytes.Equal(b, before) {
		t.Fatal("appending to a decoded field wrote into the stream")
	}

	list := encodeFrameList([]*frame{src, directFrame()})
	fs, err := decodeFrameList(list)
	if err != nil || len(fs) != 2 {
		t.Fatalf("decodeFrameList: %v, %d frames", err, len(fs))
	}
	if at := bytes.Index(list, src.Payload); &fs[0].Payload[0] != &list[at] {
		t.Fatal("decodeFrameList copied a nested payload")
	}
}

// TestDecodeFrameRejectsNonCanonical checks the encodings encodeFrame
// never writes: an explicit zero group, bytes after the group, and a
// ledger of the wrong width.
func TestDecodeFrameRejectsNonCanonical(t *testing.T) {
	f := &frame{Kind: kHB, ViewID: 2, Origin: "ra"}
	b := encodeFrame(f)
	if _, err := decodeFrame(append(append([]byte(nil), b...), 0, 0, 0, 0)); err == nil {
		t.Error("explicit zero group accepted")
	}
	f.Group = 3
	b = encodeFrame(f)
	if _, err := decodeFrame(append(append([]byte(nil), b...), 1)); err == nil {
		t.Error("trailing byte after the group accepted")
	}
	// The ledger slot count sits after kind, view, seq, origin, oseq,
	// level, empty members and seqs, and the send time.
	at := 1 + 8 + 8 + 4 + len(f.Origin) + 8 + 1 + 4 + 4 + 8
	bad := append([]byte(nil), b...)
	bad[at+3]--
	if _, err := decodeFrame(bad); err == nil {
		t.Error("short ledger accepted")
	}
}

// FuzzGCSFrame feeds decodeFrame arbitrary bytes: it must never panic,
// and whatever it accepts must re-encode to exactly the input.
func FuzzGCSFrame(f *testing.F) {
	f.Add([]byte{})
	for _, fr := range compatFrames() {
		f.Add(encodeFrame(fr))
		fr.Group = 7
		f.Add(encodeFrame(fr))
	}
	f.Add(encodeFrame(&frame{Kind: kFetchResp, Aux: encodeFrameList(compatFrames())}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeFrame(data)
		if err != nil {
			return
		}
		if back := encodeFrame(fr); !bytes.Equal(back, data) {
			t.Fatalf("accepted input re-encodes differently:\n in: %x\nout: %x", data, back)
		}
		if fr.Kind == kFetchResp {
			if list, err := decodeFrameList(fr.Aux); err == nil {
				_ = encodeFrameList(list)
			}
		}
	})
}

// TestDirectRetransmitWaitsOneInterval drives a member's tick by hand: a
// direct frame acked before it is a heartbeat interval old is never
// resent, and an unacked one is resent, as the same sealed bytes, on
// every tick once it is that old.
func TestDirectRetransmitWaitsOneInterval(t *testing.T) {
	cfg := DefaultConfig()
	hb := cfg.HBInterval
	cfg.HBInterval = time.Hour // the run loop's own ticker never fires
	conn := &recordingConn{addr: "ra", proto: byte(transport.ProtoGCS)}
	xconn := &recordingConn{addr: "ra", proto: byte(transport.ProtoGroupClient)}
	m := Open(conn, xconn, cfg)
	defer m.Stop()
	_ = m.do(func() { m.cfg.HBInterval = hb }) // the age threshold tick applies
	at := func(d time.Duration) {
		t0 := time.Unix(1000, 0)
		_ = m.do(func() { m.now = func() time.Time { return t0.Add(d) } })
	}

	at(0)
	if err := m.SendDirect("client", []byte("acked"), 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	if err := m.SendDirect("client", []byte("lost"), 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	first := xconn.take()
	if len(first) != 2 || first[0].control || first[1].control {
		t.Fatalf("initial sends: %+v", first)
	}
	lost := first[1].wire

	at(hb / 4)
	ack := encodeFrame(&frame{Kind: kDirectAck, Origin: "client", OSeq: 1})
	_ = m.do(func() { m.handleMessage(transport.Message{From: "client", To: "ra", Payload: ack}) })

	ticks := []struct {
		at     time.Duration
		resent int
	}{
		{hb / 2, 0},      // both younger than one interval
		{hb + hb/2, 1},   // only the unacked frame
		{2*hb + hb/2, 1}, // and again on every later tick
		{3*hb + hb/2, 1},
	}
	for _, tk := range ticks {
		at(tk.at)
		_ = m.do(m.tick)
		got := xconn.take()
		if len(got) != tk.resent {
			t.Fatalf("tick at %v: %d resends, want %d", tk.at, len(got), tk.resent)
		}
		for _, s := range got {
			if !s.control || s.to != "client" {
				t.Fatalf("tick at %v: resend %+v is not a control send to the client", tk.at, s)
			}
			if &s.wire[0] != &lost[0] || len(s.wire) != len(lost) {
				t.Fatalf("tick at %v: resend is not the original sealed buffer", tk.at)
			}
		}
	}
}
