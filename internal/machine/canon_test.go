package machine

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"minvn/internal/protocol/xform"
	"minvn/internal/protocols"
)

// referenceCanonicalize is the naive allocating form: the minimum of
// encode(applyPerm(st, p)) over all cache permutations.
func referenceCanonicalize(s *System, raw []byte) []byte {
	if len(s.perms) <= 1 {
		return raw
	}
	st := s.decode(raw)
	best := raw
	for _, perm := range s.perms[1:] {
		cand := s.encode(s.applyPerm(st, perm))
		if string(cand) < string(best) {
			best = cand
		}
	}
	return best
}

func canonSystem(t testing.TB) *System {
	t.Helper()
	p := protocols.MustLoad("MSI_nonblocking_cache")
	vn, n := PerMessageVN(p)
	sys, err := New(Config{Protocol: p, Caches: 3, Dirs: 2, Addrs: 2, VN: vn, NumVNs: n})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// canonCase is one system the canonicalization tests walk.
type canonCase struct {
	name string
	cfg  Config
}

// canonCases covers every built-in protocol at the paper's 3c/2d/2a, at
// 4c/1d/2a and at 3c/1d/1a, plus a two-level composite (which has the
// L2 section) and a point-to-point-ordered network, all with one VN per
// message.
func canonCases(t testing.TB) []canonCase {
	t.Helper()
	var out []canonCase
	for _, name := range protocols.Names() {
		p := protocols.MustLoad(name)
		vn, n := PerMessageVN(p)
		for _, sz := range [][3]int{{3, 2, 2}, {4, 1, 2}, {3, 1, 1}} {
			out = append(out, canonCase{
				name: fmt.Sprintf("%s/%dc%dd%da", name, sz[0], sz[1], sz[2]),
				cfg: Config{Protocol: p, Caches: sz[0], Dirs: sz[1], Addrs: sz[2],
					VN: vn, NumVNs: n},
			})
		}
	}
	comp, err := xform.Compose(protocols.MustLoad("MSI_blocking_cache"),
		protocols.MustLoad("MESI_blocking_cache"), "MSI_under_MESI")
	if err != nil {
		t.Fatal(err)
	}
	vn, n := PerMessageVN(comp)
	out = append(out, canonCase{
		name: "MSI_under_MESI/3c2l1d2a",
		cfg:  Config{Protocol: comp, Caches: 3, L2s: 2, Dirs: 1, Addrs: 2, VN: vn, NumVNs: n},
	})
	p := protocols.MustLoad("MSI_nonblocking_cache")
	vn, n = PerMessageVN(p)
	out = append(out, canonCase{
		name: "MSI_nonblocking_cache/p2p3/3c2d2a",
		cfg: Config{Protocol: p, Caches: 3, Dirs: 2, Addrs: 2, VN: vn, NumVNs: n,
			PointToPoint: true, P2PVariant: 3},
	})
	return out
}

// TestCanonicalizeMatchesReference pins the streaming canonicalizer
// against the reference implementation on walked states of every
// system in canonCases, and checks idempotence.
func TestCanonicalizeMatchesReference(t *testing.T) {
	moved := 0
	for _, tc := range canonCases(t) {
		sys, err := New(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, raw := range walkStates(sys, 400) {
			got := sys.Canonicalize(raw)
			want := referenceCanonicalize(sys, raw)
			if string(got) != string(want) {
				t.Fatalf("%s state %d: canonical forms diverge\n got  %x\n want %x", tc.name, i, got, want)
			}
			if again := sys.Canonicalize(got); string(again) != string(got) {
				t.Fatalf("%s state %d: canonicalization not idempotent", tc.name, i)
			}
			if string(got) != string(raw) {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("no walked state had a non-identity representative; the comparison is vacuous")
	}
}

// TestCanonicalizeRelabelsAnyIDs: the relabeling agrees with the
// reference on every id byte, not only on the ones short walks reach.
// Walked states get random saved/owner references and sharer bitmasks,
// L2 and directory bits included, which flat walks never set and the
// composite's walks do not reach. Neither Canonicalize nor the
// reference validates those bytes.
func TestCanonicalizeRelabelsAnyIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range canonCases(t) {
		sys, err := New(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ref := func() uint8 { return uint8(rng.Intn(sys.endpoints + 1)) }
		for i, raw := range walkStates(sys, 50) {
			st := sys.decode(raw)
			for _, row := range st.cache {
				for a := range row {
					row[a].saved = ref()
				}
			}
			for a := range st.l2 {
				st.l2[a].owner, st.l2[a].sharers = ref(), uint8(rng.Intn(256))
			}
			for a := range st.dir {
				st.dir[a].owner, st.dir[a].sharers = ref(), uint8(rng.Intn(256))
			}
			raw = sys.encode(st)
			if got, want := sys.Canonicalize(raw), referenceCanonicalize(sys, raw); string(got) != string(want) {
				t.Fatalf("%s state %d: canonical forms diverge\n got  %x\n want %x", tc.name, i, got, want)
			}
		}
	}
}

// TestCanonicalizeOrbitInvariant: every relabeling of a state has the
// same representative.
func TestCanonicalizeOrbitInvariant(t *testing.T) {
	for _, tc := range canonCases(t) {
		sys, err := New(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, raw := range walkStates(sys, 100) {
			want := sys.Canonicalize(raw)
			st := sys.decode(raw)
			for _, perm := range sys.perms {
				if got := sys.Canonicalize(sys.encode(sys.applyPerm(st, perm))); string(got) != string(want) {
					t.Fatalf("%s state %d: permutation %v has a different representative", tc.name, i, perm)
				}
			}
		}
	}
}

// TestCanonicalizeAllocations: no allocation when the input is its own
// representative, exactly one (the returned copy) otherwise.
func TestCanonicalizeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	sys := canonSystem(t)
	var moved []byte
	for _, raw := range walkStates(sys, 400) {
		if string(sys.Canonicalize(raw)) != string(raw) {
			moved = raw
			break
		}
	}
	if moved == nil {
		t.Fatal("no walked state has a non-identity representative")
	}
	canon := sys.Canonicalize(moved)
	for _, tc := range []struct {
		name string
		raw  []byte
		want float64
	}{{"identity wins", canon, 0}, {"permutation wins", moved, 1}} {
		if got := testing.AllocsPerRun(100, func() { sys.Canonicalize(tc.raw) }); got != tc.want {
			t.Errorf("%s: %v allocations per call, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCanonicalizeRejectsMalformed: truncated input, a queue length
// beyond capacity and trailing bytes panic as decode does, rather than
// yielding a representative of an impossible state.
func TestCanonicalizeRejectsMalformed(t *testing.T) {
	sys := canonSystem(t)
	var raw []byte
	for _, st := range walkStates(sys, 400) {
		if sys.InFlight(st) > 0 {
			raw = st
			break
		}
	}
	if raw == nil {
		t.Fatal("no walked state has a message in flight")
	}
	pre := sys.prefixLen()
	overCap := append([]byte(nil), raw...)
	overCap[pre] = byte(sys.net.GlobalCap + 1) // VN0 global buffer 0's length
	for _, tc := range []struct {
		name, want string
		raw        []byte
	}{
		{"truncated controllers", "state truncated", raw[:pre-1]},
		{"truncated network", "corrupt network state", raw[:len(raw)-1]},
		{"over capacity", "exceeds capacity", overCap},
		{"trailing bytes", "trailing bytes", append(append([]byte(nil), raw...), 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want it to mention %q", msg, tc.want)
				}
			}()
			sys.Canonicalize(tc.raw)
		})
	}
}

// TestCanonicalizeConcurrent exercises the scratch pool from many
// goroutines (meaningful under -race).
func TestCanonicalizeConcurrent(t *testing.T) {
	sys := canonSystem(t)
	states := walkStates(sys, 100)
	want := make([][]byte, len(states))
	for i, raw := range states {
		want[i] = sys.Canonicalize(raw)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, raw := range states {
				if got := sys.Canonicalize(raw); string(got) != string(want[i]) {
					t.Errorf("state %d: concurrent canonicalization diverged", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// walkStates collects distinct states along random walks, giving the
// canonicalizer non-trivial network contents to chew on.
func walkStates(sys *System, n int) [][]byte {
	seen := map[string]bool{}
	var out [][]byte
	for seed := int64(0); len(out) < n && seed < 50; seed++ {
		cur := sys.Initial()[0]
		for step := 0; step < 40 && len(out) < n; step++ {
			if !seen[string(cur)] {
				seen[string(cur)] = true
				out = append(out, cur)
			}
			succs, err := sys.Successors(cur)
			if err != nil || len(succs) == 0 {
				break
			}
			cur = succs[int(seed+int64(step*7))%len(succs)]
		}
	}
	return out
}
