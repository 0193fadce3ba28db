package transport_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"versadep/internal/codec"
	"versadep/internal/simnet"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

type collector struct {
	mu   sync.Mutex
	msgs []transport.Message
	ch   chan struct{}
}

func newCollector() *collector {
	return &collector{ch: make(chan struct{}, 1)}
}

func (c *collector) handle(m transport.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
	select {
	case c.ch <- struct{}{}:
	default:
	}
}

func (c *collector) wait(t *testing.T, n int) []transport.Message {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		c.mu.Lock()
		if len(c.msgs) >= n {
			out := append([]transport.Message(nil), c.msgs...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("timed out waiting for %d messages", n)
		}
	}
}

// sealed frames body for c the way a protocol layer does: encoded behind
// the headroom of a NewFrame buffer, then sealed.
func sealed(c transport.Conn, body []byte) []byte {
	return c.Seal(append(transport.NewFrame(len(body)).Bytes(), body...))
}

// send seals body for d's proto view and sends it.
func send(d *transport.Demux, proto transport.Protocol, to, body string) error {
	c := d.Conn(proto)
	return c.Send(to, sealed(c, []byte(body)), 0)
}

func TestDemuxRoutesByProtocol(t *testing.T) {
	n := simnet.New()
	defer n.Close()
	epA, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}

	da := transport.NewDemux(epA)
	db := transport.NewDemux(epB)
	gcs := newCollector()
	viop := newCollector()
	db.Handle(transport.ProtoGCS, gcs.handle)
	db.Handle(transport.ProtoVIOP, viop.handle)
	da.Start()
	db.Start()
	defer da.Close()
	defer db.Close()

	if err := send(da, transport.ProtoGCS, "b", "g1"); err != nil {
		t.Fatal(err)
	}
	if err := send(da, transport.ProtoVIOP, "b", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := send(da, transport.ProtoGCS, "b", "g2"); err != nil {
		t.Fatal(err)
	}

	g := gcs.wait(t, 2)
	if string(g[0].Payload) != "g1" || string(g[1].Payload) != "g2" {
		t.Fatalf("gcs got %q %q", g[0].Payload, g[1].Payload)
	}
	v := viop.wait(t, 1)
	if string(v[0].Payload) != "v1" {
		t.Fatalf("viop got %q", v[0].Payload)
	}
	if g[0].From != "a" {
		t.Fatalf("From = %q", g[0].From)
	}
}

func TestDemuxUnhandledProtocolDropped(t *testing.T) {
	n := simnet.New()
	defer n.Close()
	epA, _ := n.Endpoint("a")
	epB, _ := n.Endpoint("b")

	da := transport.NewDemux(epA)
	db := transport.NewDemux(epB)
	gcs := newCollector()
	db.Handle(transport.ProtoGCS, gcs.handle)
	da.Start()
	db.Start()
	defer da.Close()
	defer db.Close()

	// No handler for VIOP at b; must not wedge the dispatcher.
	if err := send(da, transport.ProtoVIOP, "b", "lost"); err != nil {
		t.Fatal(err)
	}
	if err := send(da, transport.ProtoGCS, "b", "kept"); err != nil {
		t.Fatal(err)
	}
	g := gcs.wait(t, 1)
	if string(g[0].Payload) != "kept" {
		t.Fatalf("got %q", g[0].Payload)
	}
}

func TestDemuxMulticastAndControl(t *testing.T) {
	n := simnet.New()
	defer n.Close()
	epA, _ := n.Endpoint("a")
	epB, _ := n.Endpoint("b")
	epC, _ := n.Endpoint("c")

	da := transport.NewDemux(epA)
	db := transport.NewDemux(epB)
	dc := transport.NewDemux(epC)
	cb := newCollector()
	cc := newCollector()
	db.Handle(transport.ProtoGCS, cb.handle)
	dc.Handle(transport.ProtoGCS, cc.handle)
	da.Start()
	db.Start()
	dc.Start()
	defer da.Close()
	defer db.Close()
	defer dc.Close()

	conn := da.Conn(transport.ProtoGCS)
	payload := make([]byte, 99)
	if err := conn.SendMulticast([]string{"b", "c"}, sealed(conn, payload), 0); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 1)
	cc.wait(t, 1)
	// Multicast counts the framed payload once.
	if got := n.Stats().BytesSent; got != 100 {
		t.Fatalf("multicast bytes = %d, want 100", got)
	}

	// Control traffic is not counted at all.
	if err := conn.SendControl("b", sealed(conn, []byte("hb")), 0); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 2)
	if got := n.Stats().BytesSent; got != 100 {
		t.Fatalf("control bytes counted: %d", got)
	}
}

func TestDemuxEmptyPayloadIgnored(t *testing.T) {
	n := simnet.New()
	defer n.Close()
	epA, _ := n.Endpoint("a")
	epB, _ := n.Endpoint("b")

	db := transport.NewDemux(epB)
	gcs := newCollector()
	db.Handle(transport.ProtoGCS, gcs.handle)
	db.Start()
	defer db.Close()

	// A zero-length raw payload (no protocol byte) must be ignored.
	if err := epA.Send("b", nil, 0); err != nil {
		t.Fatal(err)
	}
	da := transport.NewDemux(epA)
	da.Start()
	defer da.Close()
	if err := send(da, transport.ProtoGCS, "b", "ok"); err != nil {
		t.Fatal(err)
	}
	g := gcs.wait(t, 1)
	if string(g[0].Payload) != "ok" {
		t.Fatalf("got %q", g[0].Payload)
	}
}

func TestSimnetMulticastFaultIndependence(t *testing.T) {
	n := simnet.New(simnet.WithSeed(5))
	defer n.Close()
	epA, _ := n.Endpoint("a")
	epB, _ := n.Endpoint("b")
	epC, _ := n.Endpoint("c")
	_ = epB

	// b is partitioned away; multicast still reaches c.
	n.Partition("b", 1)
	if err := epA.SendMulticast([]string{"b", "c"}, []byte("m"), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-epC.Recv():
		if string(m.Payload) != "m" {
			t.Fatalf("payload %q", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("c did not receive multicast")
	}
	select {
	case <-epB.Recv():
		t.Fatal("partitioned b received multicast")
	case <-time.After(50 * time.Millisecond):
	}
}

// discardEndpoint is a MultiEndpoint that drops everything it is given.
type discardEndpoint struct{ recv chan transport.Message }

func (discardEndpoint) Addr() string                                     { return "a" }
func (discardEndpoint) Send(string, []byte, vtime.Time) error            { return nil }
func (discardEndpoint) SendMulticast([]string, []byte, vtime.Time) error { return nil }
func (discardEndpoint) SendControl(string, []byte, vtime.Time) error     { return nil }
func (e discardEndpoint) Recv() <-chan transport.Message                 { return e.recv }
func (e discardEndpoint) Close() error                                   { close(e.recv); return nil }

// TestSealAllocatesNothing pins the single-copy send path: a frame built
// with NewFrame costs one allocation, and sealing and sending it none.
func TestSealAllocatesNothing(t *testing.T) {
	d := transport.NewDemux(discardEndpoint{recv: make(chan transport.Message)})
	c := d.Conn(transport.ProtoGCS)
	body := bytes.Repeat([]byte{7}, 40<<10)
	var frame []byte
	if allocs := testing.AllocsPerRun(20, func() {
		frame = append(transport.NewFrame(len(body)).Bytes(), body...)
	}); allocs != 1 {
		t.Fatalf("NewFrame plus encoding made %v allocations, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		_ = c.Send("b", c.Seal(frame[:transport.Headroom+len(body)]), 0)
	}); allocs != 0 {
		t.Fatalf("seal and send made %v allocations, want 0", allocs)
	}
	wire := c.Seal(frame)
	if len(wire) != transport.Headroom+len(body)+codec.SealOverhead || cap(wire) != len(wire) {
		t.Fatalf("wire len %d cap %d", len(wire), cap(wire))
	}
	got, err := codec.VerifyChecksum(wire)
	if err != nil || got[0] != byte(transport.ProtoGCS) || !bytes.Equal(got[1:], body) {
		t.Fatalf("sealed frame does not verify: %v", err)
	}
}
