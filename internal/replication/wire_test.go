package replication

import (
	"bytes"
	"math"
	"testing"
)

// stateMsg is a checkpoint's bulk message with a 40 KB snapshot, the
// payload a warm-passive primary ships to every backup.
func stateMsg() *Msg {
	state := make([]byte, 40<<10)
	for i := range state {
		state[i] = byte(i * 7)
	}
	return &Msg{Kind: KindState, State: state, CoveredSeq: 77, CkptSerial: 9}
}

// TestEncodeStateOneAllocation pins Encode's exact sizing: one allocation,
// no regrowth, no spare capacity.
func TestEncodeStateOneAllocation(t *testing.T) {
	m := stateMsg()
	var b []byte
	allocs := testing.AllocsPerRun(50, func() { b = Encode(m) })
	if allocs != 1 {
		t.Fatalf("Encode(KindState) made %v allocations, want 1", allocs)
	}
	if cap(b) != len(b) {
		t.Fatalf("cap %d != len %d: the size hint was not exact", cap(b), len(b))
	}
}

// TestEncodedSizeExact checks the size computation against every field
// shape, including the chunk cursor and the metrics map.
func TestEncodedSizeExact(t *testing.T) {
	msgs := []*Msg{
		{},
		{Kind: KindRequest, Viop: []byte("viop")},
		{Kind: KindCheckpoint, Cache: []CacheEntry{{Client: "c1", ReqID: 4, Reply: []byte("r")}, {Client: "c22"}},
			Final: true, SwitchID: 3, CoveredSeq: 10, CkptSerial: 2},
		{Kind: KindMetrics, Metrics: map[string]float64{"a": 1, "bb": math.NaN()}},
		{Kind: KindConfig, CheckpointEvery: 5},
		{Kind: KindRetire, Target: "rc"},
		{Kind: KindStateChunk, State: []byte("chunk"), ChunkIndex: 1, ChunkCount: 4},
		{Kind: KindChunkAck, ChunkIndex: 2},
	}
	for _, m := range msgs {
		if b := Encode(m); len(b) != encodedSize(m) || cap(b) != len(b) {
			t.Errorf("kind %d: len %d cap %d, encodedSize %d", m.Kind, len(b), cap(b), encodedSize(m))
		}
	}
}

// TestDecodeAliasesInput checks that Decode returns State, Viop and cached
// replies in place, and that appending to one cannot write into the
// stream behind it.
func TestDecodeAliasesInput(t *testing.T) {
	b := Encode(stateMsg())
	m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	// kind, empty Viop, then State's length prefix.
	if &m.State[0] != &b[1+4+4] {
		t.Fatal("Decode copied State instead of aliasing the input")
	}
	before := append([]byte(nil), b...)
	grown := append(m.State, 0xEE)
	grown[0] ^= 0xFF
	if !bytes.Equal(b, before) {
		t.Fatal("appending to a decoded State wrote into the stream")
	}

	b = Encode(&Msg{Kind: KindCheckpoint, Viop: []byte("v"),
		Cache: []CacheEntry{{Client: "c", ReqID: 1, Reply: []byte("reply")}}})
	m, err = Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if &m.Viop[0] != &b[1+4] {
		t.Fatal("Decode copied Viop")
	}
	if got := bytes.Index(b, []byte("reply")); &m.Cache[0].Reply[0] != &b[got] {
		t.Fatal("Decode copied a cached reply")
	}
	before = append([]byte(nil), b...)
	_ = append(m.Viop, 'x')
	if !bytes.Equal(b, before) {
		t.Fatal("appending to a decoded Viop wrote into the stream")
	}
}

// TestDecodeRejectsNonCanonical checks the encodings Encode never writes.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	good := Encode(&Msg{Kind: KindMetrics, Metrics: map[string]float64{"a": 1, "b": 2}, Final: true})
	if _, err := Decode(good); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	swapped := bytes.Replace(good, []byte("a"), []byte("c"), 1) // keys out of order
	if _, err := Decode(swapped); err == nil {
		t.Error("unsorted metric keys accepted")
	}
	final := 1 + 4 + 4 + 4 + 1 + 8 + 8 + 8
	bad := append([]byte(nil), good...)
	bad[final] = 2
	if _, err := Decode(bad); err == nil {
		t.Error("Final byte 2 accepted")
	}
}

// FuzzReplicationMsg feeds Decode arbitrary bytes: it must never panic,
// and whatever it accepts must re-encode to exactly the input.
func FuzzReplicationMsg(f *testing.F) {
	f.Add([]byte{})
	for _, m := range []*Msg{
		{Kind: KindRequest, Viop: []byte("viop")},
		{Kind: KindState, State: []byte("state"), CoveredSeq: 3, CkptSerial: 1},
		{Kind: KindCheckpoint, Cache: []CacheEntry{{Client: "c", ReqID: 2, Reply: []byte("r")}}, Final: true},
		{Kind: KindMetrics, Metrics: map[string]float64{"cpu": 0.5, "rate": 120}},
		{Kind: KindRetire, Target: "rb"},
		{Kind: KindStateChunk, State: []byte("chunk"), ChunkIndex: 1, ChunkCount: 2},
	} {
		f.Add(Encode(m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		if back := Encode(m); !bytes.Equal(back, data) {
			t.Fatalf("accepted input re-encodes differently:\n in: %x\nout: %x", data, back)
		}
	})
}
