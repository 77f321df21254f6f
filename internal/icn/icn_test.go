package icn

import (
	"bytes"
	"testing"
	"testing/quick"
)

func cfg() Config {
	return Config{NumVNs: 2, Endpoints: 3, GlobalCap: 2, LocalCap: 2}
}

func TestValidate(t *testing.T) {
	if err := cfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg()
	bad.NumVNs = 0
	if bad.Validate() == nil {
		t.Error("zero VNs accepted")
	}
	bad = cfg()
	bad.GlobalCap = 0
	if bad.Validate() == nil {
		t.Error("zero capacity accepted")
	}
	p2p := cfg()
	p2p.PointToPoint = true
	if p2p.Validate() == nil {
		t.Error("p2p without mapping accepted")
	}
	p2p.P2P = UniformP2P(3, 1)
	if err := p2p.Validate(); err != nil {
		t.Error(err)
	}
	p2p.P2P[0][0] = 7
	if p2p.Validate() == nil {
		t.Error("invalid buffer index accepted")
	}
	big := cfg()
	big.GlobalCap = 256
	if big.Validate() == nil {
		t.Error("GlobalCap beyond the byte-encoded limit accepted")
	}
	big = cfg()
	big.LocalCap = 300
	if big.Validate() == nil {
		t.Error("LocalCap beyond the byte-encoded limit accepted")
	}
	big = cfg()
	big.GlobalCap, big.LocalCap = 255, 255
	if err := big.Validate(); err != nil {
		t.Errorf("capacity 255 rejected: %v", err)
	}
}

// TestDecodeRejectsCorruptInput: truncated or out-of-range inputs must
// yield errors, never panics or impossible states.
func TestDecodeRejectsCorruptInput(t *testing.T) {
	c := cfg()
	s := NewState(c)
	s.Send(0, 0, Message{Name: 1, Dst: 1})
	s.Send(0, 1, Message{Name: 2, Dst: 2})
	enc := s.Encode(nil)

	if _, _, err := Decode(c, nil); err == nil {
		t.Error("empty input accepted")
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := Decode(c, enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// A queue length beyond the configured capacity is corrupt even if
	// enough bytes follow.
	over := append([]byte{byte(c.GlobalCap + 1)}, make([]byte, 64)...)
	if _, _, err := Decode(c, over); err == nil {
		t.Error("queue length beyond capacity accepted")
	}
}

func TestSendDeliverProcessFlow(t *testing.T) {
	c := cfg()
	s := NewState(c)
	if !s.Empty() {
		t.Fatal("fresh state not empty")
	}
	m := Message{Name: 1, Addr: 0, Src: 0, Req: 0, Dst: 2, Acks: -1}
	if !s.CanSend(c, 0, 1) {
		t.Fatal("cannot send into empty buffer")
	}
	s.Send(0, 1, m)
	if s.Empty() || s.InFlight() != 1 {
		t.Fatal("send not recorded")
	}
	if s.CanDeliver(c, 0, 0) {
		t.Fatal("empty buffer claims deliverable")
	}
	if !s.CanDeliver(c, 0, 1) {
		t.Fatal("cannot deliver")
	}
	got := s.Deliver(0, 1)
	if got != m {
		t.Fatalf("delivered %+v, want %+v", got, m)
	}
	head, ok := s.Head(2, 0)
	if !ok || head != m {
		t.Fatal("message did not reach endpoint FIFO")
	}
	if _, ok := s.Head(2, 1); ok {
		t.Fatal("message leaked to another VN")
	}
	popped := s.PopLocal(2, 0)
	if popped != m || !s.Empty() {
		t.Fatal("pop wrong")
	}
}

func TestCapacityEnforced(t *testing.T) {
	c := cfg()
	s := NewState(c)
	m := Message{Dst: 1}
	s.Send(0, 0, m)
	s.Send(0, 0, m)
	if s.CanSend(c, 0, 0) {
		t.Fatal("capacity ignored")
	}
	if !s.CanSend(c, 0, 1) {
		t.Fatal("other buffer should have room")
	}
	// Fill endpoint 1's local FIFO.
	s.Deliver(0, 0)
	s.Deliver(0, 0)
	if s.CanDeliver(c, 0, 0) {
		t.Fatal("deliver from empty buffer")
	}
	s.Send(0, 0, m)
	if s.CanDeliver(c, 0, 0) {
		t.Fatal("local FIFO full but deliver allowed")
	}
}

func TestFIFOOrderWithinBuffer(t *testing.T) {
	c := cfg()
	s := NewState(c)
	m1 := Message{Name: 1, Dst: 1}
	m2 := Message{Name: 2, Dst: 1}
	s.Send(0, 0, m1)
	s.Send(0, 0, m2)
	if got := s.Deliver(0, 0); got.Name != 1 {
		t.Fatalf("FIFO order violated: got %d first", got.Name)
	}
	if got := s.Deliver(0, 0); got.Name != 2 {
		t.Fatal("second message wrong")
	}
	// Local FIFO preserves arrival order too.
	if h, _ := s.Head(1, 0); h.Name != 1 {
		t.Fatal("local FIFO order violated")
	}
}

func TestReorderingAcrossBuffers(t *testing.T) {
	// The Fig. 4 point: two messages between the same endpoints can
	// be reordered by using the two global buffers.
	c := cfg()
	s := NewState(c)
	first := Message{Name: 1, Dst: 2}
	second := Message{Name: 2, Dst: 2}
	s.Send(0, 0, first)
	s.Send(0, 1, second)
	s.Deliver(0, 1) // the later message arrives first
	s.Deliver(0, 0)
	if h, _ := s.Head(2, 0); h.Name != 2 {
		t.Fatal("reordering via distinct buffers failed")
	}
}

func TestBufferChoices(t *testing.T) {
	c := cfg()
	if got := c.BufferChoices(0, 1); len(got) != 2 {
		t.Fatalf("unordered choices = %v", got)
	}
	c.PointToPoint = true
	c.P2P = UniformP2P(3, 1)
	if got := c.BufferChoices(0, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("p2p choices = %v", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := cfg()
	s := NewState(c)
	s.Send(0, 0, Message{Name: 1, Addr: 1, Src: 0, Req: 0, Dst: 2, Acks: 3})
	s.Send(1, 1, Message{Name: 2, Addr: 0, Src: 2, Req: 1, Dst: 0, Acks: -2})
	s.Deliver(1, 1)
	enc := s.Encode(nil)
	dec, rest, err := Decode(c, enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if string(dec.Encode(nil)) != string(enc) {
		t.Fatal("round trip not canonical")
	}
	if dec.InFlight() != 2 {
		t.Fatalf("in flight = %d", dec.InFlight())
	}
}

func TestPropEncodeDecode(t *testing.T) {
	c := cfg()
	f := func(ops []byte) bool {
		s := NewState(c)
		for i := 0; i+1 < len(ops); i += 2 {
			vn := int(ops[i]) % c.NumVNs
			buf := int(ops[i]) / 128
			switch ops[i+1] % 3 {
			case 0:
				if s.CanSend(c, vn, buf) {
					s.Send(vn, buf, Message{
						Name: ops[i+1] % 5, Addr: ops[i] % 2,
						Src: ops[i] % 3, Dst: ops[i+1] % 3, Acks: int8(ops[i]%5) - 2,
					})
				}
			case 1:
				if s.CanDeliver(c, vn, buf) {
					s.Deliver(vn, buf)
				}
			case 2:
				e := int(ops[i+1]) % c.Endpoints
				if _, ok := s.Head(e, vn); ok {
					s.PopLocal(e, vn)
				}
			}
		}
		enc := s.Encode(nil)
		dec, rest, err := Decode(c, enc)
		return err == nil && len(rest) == 0 && string(dec.Encode(nil)) == string(enc) &&
			dec.InFlight() == s.InFlight()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := cfg()
	s := NewState(c)
	s.Send(0, 0, Message{Name: 1, Dst: 1})
	clone := s.Clone()
	clone.Deliver(0, 0)
	if s.InFlight() != 1 || len(s.Global[0][0]) != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestFormat(t *testing.T) {
	c := cfg()
	s := NewState(c)
	s.Send(0, 0, Message{Name: 0, Dst: 1})
	out := s.Format([]string{"GetS"})
	if out == "" {
		t.Fatal("empty format")
	}
}

// TestQueueOffsetsAndAppendRelabeled: the walker finds every queue of a
// populated state, and relabeling the encoded queues matches encoding
// the state with relabeled messages.
func TestQueueOffsetsAndAppendRelabeled(t *testing.T) {
	c := cfg()
	s := NewState(c)
	s.Send(0, 0, Message{Name: 1, Addr: 1, Src: 0, Req: 0, Dst: 2, Acks: 3})
	s.Send(1, 1, Message{Name: 2, Addr: 0, Src: 2, Req: 1, Dst: 1, Acks: -2})
	s.Send(1, 1, Message{Name: 3, Addr: 1, Src: 1, Req: 1, Dst: 0})
	s.Deliver(1, 1)
	enc := s.Encode(nil)
	offs, rest, err := QueueOffsets(c, append(enc, 9), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 1 || len(offs) != 2*c.NumVNs+c.Endpoints*c.NumVNs+1 || offs[len(offs)-1] != len(enc) {
		t.Fatalf("offsets %v, %d bytes left", offs, len(rest))
	}
	for q, off := range offs[:len(offs)-1] {
		if next := off + 1 + int(enc[off])*msgBytes; next != offs[q+1] {
			t.Fatalf("queue %d: starts at %d with length %d, next queue at %d", q, off, enc[off], offs[q+1])
		}
	}

	var ep [256]uint8
	for i := range ep {
		ep[i] = uint8(i)
	}
	ep[0], ep[1] = 1, 0
	swap := func(e uint8) uint8 { return ep[e] }
	want := s.Clone()
	for _, qs := range want.Local {
		for _, q := range qs {
			for i := range q {
				q[i].Src, q[i].Req, q[i].Dst = swap(q[i].Src), swap(q[i].Req), swap(q[i].Dst)
			}
		}
	}
	for vn := range want.Global {
		for _, q := range want.Global[vn] {
			for i := range q {
				q[i].Src, q[i].Req, q[i].Dst = swap(q[i].Src), swap(q[i].Req), swap(q[i].Dst)
			}
		}
	}
	if got := AppendRelabeled(nil, enc, &ep); !bytes.Equal(got, want.Encode(nil)) {
		t.Fatalf("relabeled\n got  %x\n want %x", got, want.Encode(nil))
	}

	for _, bad := range [][]byte{enc[:len(enc)-1], {byte(c.GlobalCap + 1)}} {
		if _, _, err := QueueOffsets(c, bad, nil); err == nil {
			t.Fatalf("QueueOffsets accepted %x", bad)
		}
	}
}
