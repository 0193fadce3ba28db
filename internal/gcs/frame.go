package gcs

import (
	"errors"
	"fmt"
	"sort"

	"versadep/internal/codec"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// frameKind discriminates GCS wire frames.
type frameKind uint8

const (
	// kJoin: Origin wants to join; sent to any member, forwarded to the
	// coordinator.
	kJoin frameKind = iota + 1
	// kLeave: Origin leaves the group gracefully.
	kLeave
	// kHB: heartbeat (control).
	kHB
	// kData: submission to the sequencer. Origin/OSeq identify the
	// message; Level records the requested service (Agreed).
	kData
	// kSeq: sequenced broadcast from the sequencer; Seq is the global
	// sequence number.
	kSeq
	// kNack: receiver is missing sequence numbers listed in Seqs.
	kNack
	// kFifo: direct FIFO multicast; OSeq is the per-sender sequence in
	// the current view.
	kFifo
	// kFifoNack: receiver missing FIFO OSeqs from Origin.
	kFifoNack
	// kCausal: causal multicast; Seqs carries the sender's vector clock
	// aligned with view membership order.
	kCausal
	// kBE: best-effort multicast.
	kBE
	// kPrepare: view-change proposal; ViewID is the proposed id, Members
	// the proposed membership.
	kPrepare
	// kPrepareAck: flush acknowledgement; Seq is the acker's highest
	// contiguously delivered sequence, Seqs lists held (non-contiguous)
	// sequences it also has.
	kPrepareAck
	// kFetch: proposer requests the sequenced frames listed in Seqs.
	kFetch
	// kFetchResp: Aux carries encoded kSeq frames.
	kFetchResp
	// kView: sequenced view installation; Seq orders it in the agreed
	// stream, ViewID/Members define the view.
	kView
	// kDirect: reliable point-to-point payload; OSeq is the per-pair
	// sequence.
	kDirect
	// kDirectAck: acknowledges kDirect OSeq (control).
	kDirectAck
	// kViewHint: tells an external client the current membership
	// (control; sent in response to misdirected submissions).
	kViewHint
	// kDataAck: tells an external origin its kData submission has been
	// sequenced, so it can stop retransmitting (control).
	kDataAck
)

// frame is the single wire envelope for all GCS traffic. Unused fields
// encode compactly (empty strings/slices).
type frame struct {
	Kind    frameKind
	ViewID  uint64
	Seq     uint64
	Origin  string
	OSeq    uint64
	Level   ServiceLevel
	Members []string
	Seqs    []uint64
	SentVT  vtime.Time // origin's virtual send instant (end-to-end)
	Ledger  vtime.Ledger
	Payload []byte
	Aux     []byte
	// Left annotates a kView frame with the old-view members that
	// departed gracefully (announced leaves), as opposed to crashing.
	Left []string
	// Group multiplexes independent replica groups (shards) over shared
	// transports: members stamp their shard's group id on every frame and
	// drop inbound frames from other groups. Zero is the unsharded (and
	// shard-0) group, and a zero Group is not encoded at all — the frame
	// then ends after Left exactly as it did before sharding existed, so
	// a 1-shard cluster's wire bytes stay byte-identical (regression-
	// tested in frame_compat_test.go).
	Group uint32
}

// frameHeaderSize is the encoded size of a frame with every string, list
// and byte field empty, no ledger slots and group 0.
const frameHeaderSize = 62

// frameSize returns the exact length of f's encoding, so encoders allocate
// once and never regrow.
func frameSize(f *frame) int {
	n := frameHeaderSize + len(f.Origin) + 8*len(f.Seqs) + 8*len(f.Ledger.Slots()) +
		len(f.Payload) + len(f.Aux)
	for _, m := range f.Members {
		n += 4 + len(m)
	}
	for _, m := range f.Left {
		n += 4 + len(m)
	}
	if f.Group != 0 {
		n += 4
	}
	return n
}

// sealFrame encodes f straight into an outbound transport frame and seals
// it for c: one exactly sized allocation from frame to wire bytes.
func sealFrame(c transport.Conn, f *frame) []byte {
	e := transport.NewFrame(frameSize(f))
	putFrame(e, f)
	return c.Seal(e.Bytes())
}

// putFrame appends f's encoding to e.
func putFrame(e *codec.Encoder, f *frame) {
	e.PutUint8(uint8(f.Kind))
	e.PutUint64(f.ViewID)
	e.PutUint64(f.Seq)
	e.PutString(f.Origin)
	e.PutUint64(f.OSeq)
	e.PutUint8(uint8(f.Level))
	e.PutUint32(uint32(len(f.Members)))
	for _, m := range f.Members {
		e.PutString(m)
	}
	e.PutUint32(uint32(len(f.Seqs)))
	for _, s := range f.Seqs {
		e.PutUint64(s)
	}
	e.PutInt64(int64(f.SentVT))
	slots := f.Ledger.Slots()
	e.PutUint32(uint32(len(slots)))
	for _, d := range slots {
		e.PutInt64(int64(d))
	}
	e.PutBytes(f.Payload)
	e.PutBytes(f.Aux)
	e.PutUint32(uint32(len(f.Left)))
	for _, m := range f.Left {
		e.PutString(m)
	}
	// Trailing optional field, like the replication transfer cursor:
	// emitted only when non-zero so group-0 frames keep their legacy
	// layout.
	if f.Group != 0 {
		e.PutUint32(f.Group)
	}
}

// errNonCanonical reports a frame putFrame would never produce: a
// ledger of the wrong width, an explicit zero group or trailing bytes.
var errNonCanonical = errors.New("gcs: non-canonical frame")

// decodeFrame parses a frame, validating length prefixes against the
// stream. Only canonical encodings are accepted, so a decoded frame
// re-encodes to exactly the bytes it came from. Payload and Aux alias b,
// which must not change afterwards.
func decodeFrame(b []byte) (*frame, error) {
	d := codec.NewDecoder(b)
	var f frame
	kind, err := d.Uint8()
	if err != nil {
		return nil, fmt.Errorf("gcs: frame kind: %w", err)
	}
	f.Kind = frameKind(kind)
	if f.ViewID, err = d.Uint64(); err != nil {
		return nil, err
	}
	if f.Seq, err = d.Uint64(); err != nil {
		return nil, err
	}
	if f.Origin, err = d.String(); err != nil {
		return nil, err
	}
	if f.OSeq, err = d.Uint64(); err != nil {
		return nil, err
	}
	lvl, err := d.Uint8()
	if err != nil {
		return nil, err
	}
	f.Level = ServiceLevel(lvl)
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(d.Remaining()) {
		return nil, codec.ErrTooLarge
	}
	f.Members = make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		m, err := d.String()
		if err != nil {
			return nil, err
		}
		f.Members = append(f.Members, m)
	}
	if n, err = d.Uint32(); err != nil {
		return nil, err
	}
	if uint64(n) > uint64(d.Remaining()) {
		return nil, codec.ErrTooLarge
	}
	f.Seqs = make([]uint64, 0, n)
	for i := uint32(0); i < n; i++ {
		s, err := d.Uint64()
		if err != nil {
			return nil, err
		}
		f.Seqs = append(f.Seqs, s)
	}
	vt, err := d.Int64()
	if err != nil {
		return nil, err
	}
	f.SentVT = vtime.Time(vt)
	if n, err = d.Uint32(); err != nil {
		return nil, err
	}
	slots := f.Ledger.Slots()
	if int(n) != len(slots) {
		return nil, errNonCanonical
	}
	for i := range slots {
		v, err := d.Int64()
		if err != nil {
			return nil, err
		}
		slots[i] = vtime.Duration(v)
	}
	if f.Payload, err = d.BytesAlias(); err != nil {
		return nil, err
	}
	if f.Aux, err = d.BytesAlias(); err != nil {
		return nil, err
	}
	if n, err = d.Uint32(); err != nil {
		return nil, err
	}
	if uint64(n) > uint64(d.Remaining()) {
		return nil, codec.ErrTooLarge
	}
	for i := uint32(0); i < n; i++ {
		m, err := d.String()
		if err != nil {
			return nil, err
		}
		f.Left = append(f.Left, m)
	}
	if d.Remaining() > 0 {
		g, err := d.Uint32()
		if err != nil {
			return nil, err
		}
		if g == 0 || d.Remaining() > 0 {
			return nil, errNonCanonical
		}
		f.Group = g
	}
	return &f, nil
}

// detach replaces Payload and Aux, which decodeFrame aliases to the
// inbound buffer, with private copies of exactly their length.
func (f *frame) detach() {
	if len(f.Payload) > 0 {
		f.Payload = append(make([]byte, 0, len(f.Payload)), f.Payload...)
	}
	if len(f.Aux) > 0 {
		f.Aux = append(make([]byte, 0, len(f.Aux)), f.Aux...)
	}
}

// encodeSeenData packs per-origin dedup watermarks for kView Aux payloads.
func encodeSeenData(seen map[string]uint64) []byte {
	e := codec.NewEncoder(16 * (1 + len(seen)))
	e.PutUint32(uint32(len(seen)))
	// Deterministic order keeps view frames byte-identical across
	// re-encodings (retransmissions compare equal).
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.PutString(k)
		e.PutUint64(seen[k])
	}
	return e.Bytes()
}

// decodeSeenData unpacks a kView Aux payload.
func decodeSeenData(b []byte) (map[string]uint64, error) {
	d := codec.NewDecoder(b)
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(d.Remaining()) {
		return nil, codec.ErrTooLarge
	}
	out := make(map[string]uint64, n)
	for i := uint32(0); i < n; i++ {
		k, err := d.String()
		if err != nil {
			return nil, err
		}
		v, err := d.Uint64()
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

// encodeFrameList packs frames for kFetchResp Aux payloads.
func encodeFrameList(fs []*frame) []byte {
	n := 4
	for _, f := range fs {
		n += 4 + frameSize(f)
	}
	e := codec.NewEncoder(n)
	e.PutUint32(uint32(len(fs)))
	for _, f := range fs {
		// A length-prefixed frame, encoded in place.
		e.PutUint32(uint32(frameSize(f)))
		putFrame(e, f)
	}
	return e.Bytes()
}

// decodeFrameList unpacks a kFetchResp Aux payload. The frames alias b.
func decodeFrameList(b []byte) ([]*frame, error) {
	d := codec.NewDecoder(b)
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(d.Remaining()) {
		return nil, codec.ErrTooLarge
	}
	out := make([]*frame, 0, n)
	for i := uint32(0); i < n; i++ {
		fb, err := d.BytesAlias()
		if err != nil {
			return nil, err
		}
		f, err := decodeFrame(fb)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
