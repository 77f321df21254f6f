package icn

import (
	"bytes"
	"testing"
)

// FuzzEncodeDecode pins the codec's two safety properties: Decode
// never panics on arbitrary bytes, and whenever it accepts an input,
// re-encoding the decoded state reproduces exactly the consumed
// prefix (decode ∘ encode = identity on the image of Encode). The
// byte-level QueueOffsets walker must agree with Decode on every input.
func FuzzEncodeDecode(f *testing.F) {
	c := Config{NumVNs: 2, Endpoints: 3, GlobalCap: 4, LocalCap: 3}

	f.Add([]byte(nil))
	f.Add(NewState(c).Encode(nil))
	seeded := NewState(c)
	seeded.Send(0, 0, Message{Name: 1, Addr: 1, Src: 0, Req: 2, Dst: 2, Acks: 3})
	seeded.Send(1, 1, Message{Name: 2, Addr: 0, Src: 2, Req: 0, Dst: 0, Acks: -2})
	seeded.Deliver(1, 1)
	f.Add(seeded.Encode(nil))
	f.Add([]byte{255, 0, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, rest, err := Decode(c, data)
		// The byte-level walker must accept and reject exactly as Decode.
		offs, qrest, qerr := QueueOffsets(c, data, nil)
		if (qerr == nil) != (err == nil) {
			t.Fatalf("QueueOffsets error %v, Decode error %v", qerr, err)
		}
		if err != nil {
			return // rejected input: the only requirement is "no panic"
		}
		if len(qrest) != len(rest) || offs[len(offs)-1] != len(data)-len(rest) {
			t.Fatalf("QueueOffsets consumed %d bytes, Decode %d", len(data)-len(qrest), len(data)-len(rest))
		}
		consumed := data[:len(data)-len(rest)]
		enc := s.Encode(nil)
		if !bytes.Equal(enc, consumed) {
			t.Fatalf("encode(decode(x)) != x:\n in  %x\n out %x", consumed, enc)
		}
		// The accepted state must also survive a second round trip.
		s2, rest2, err := Decode(c, enc)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-decode failed: %v (%d trailing)", err, len(rest2))
		}
		if !bytes.Equal(s2.Encode(nil), enc) {
			t.Fatal("second round trip diverged")
		}
	})
}
