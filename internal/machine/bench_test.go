package machine

import (
	"testing"

	"minvn/internal/mc"
	"minvn/internal/protocol"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

func benchSystem(b *testing.B, proto string, caches, dirs, addrs int, noSym bool) *System {
	b.Helper()
	p := protocols.MustLoad(proto)
	a := vnassign.Assign(p)
	vn, n := a.VN, a.NumVNs
	if vn == nil {
		vn, n = PerMessageVN(p)
	}
	sys, err := New(Config{
		Protocol: p, Caches: caches, Dirs: dirs, Addrs: addrs,
		VN: vn, NumVNs: n, GlobalCap: 2, LocalCap: 2, NoSymmetry: noSym,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkSuccessors measures raw rule-enumeration throughput on a
// mid-exploration state, without and with the per-successor rule
// labels the telemetry path asks for.
func BenchmarkSuccessors(b *testing.B) {
	sys := benchSystem(b, "MSI_nonblocking_cache", 3, 2, 2, false)
	sc := NewScenario(sys)
	if err := sc.Core(0, 0, protocol.Store); err != nil {
		b.Fatal(err)
	}
	if err := sc.Core(1, 1, protocol.Store); err != nil {
		b.Fatal(err)
	}
	st := sc.State()
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Successors(st); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("named", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := sys.SuccessorsNamed(st); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCanonicalize measures the symmetry-reduction hook on walked
// states of the paper's 3c/2d/2a system with one VN per message — the
// states a Class 2 deadlock hunt canonicalizes. (The initial state,
// where every cache ties, is not representative.)
func BenchmarkCanonicalize(b *testing.B) {
	sys := canonSystem(b)
	states := walkStates(sys, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		canonSink = sys.Canonicalize(states[i%len(states)])
	}
}

var canonSink []byte

// BenchmarkNew measures building a system at the paper's 3c/2d/2a,
// relabeling tables included: every verify request and engine set-up
// pays it.
func BenchmarkNew(b *testing.B) {
	p := protocols.MustLoad("MSI_nonblocking_cache")
	vn, n := PerMessageVN(p)
	cfg := Config{Protocol: p, Caches: 3, Dirs: 2, Addrs: 2, VN: vn, NumVNs: n}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation (DESIGN.md §5.3): DFS vs BFS for finding the Class 2
// deadlock of MSI-with-blocking-cache.
func BenchmarkDeadlockSearchStrategy(b *testing.B) {
	p := protocols.MustLoad("MSI_blocking_cache")
	vn, n := PerMessageVN(p)
	sys, err := New(Config{
		Protocol: p, Caches: 3, Dirs: 2, Addrs: 2,
		VN: vn, NumVNs: n, GlobalCap: 2, LocalCap: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	sc := NewScenario(sys)
	for i := 0; i < 2; i++ {
		if err := sc.Core(i, i, protocol.Store); err != nil {
			b.Fatal(err)
		}
		if err := sc.Handle(3+i, "GetM", i); err != nil {
			b.Fatal(err)
		}
		if err := sc.Handle(i, "Data", i); err != nil {
			b.Fatal(err)
		}
	}
	seed := sc.State()
	for _, strat := range []mc.Strategy{mc.DFS, mc.BFS} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mc.Check(&Seeded{System: sys, Seeds: [][]byte{seed}},
					mc.Options{Strategy: strat, MaxStates: 400_000, DisableTraces: true})
				// BFS may exhaust its budget before the deep deadlock;
				// report what happened instead of failing.
				if res.Outcome == mc.Deadlock {
					b.ReportMetric(1, "found")
				} else {
					b.ReportMetric(0, "found")
				}
				b.ReportMetric(float64(res.States), "states")
			}
		})
	}
}

// Ablation (DESIGN.md §5.4): symmetry reduction on vs off.
func BenchmarkSymmetryReduction(b *testing.B) {
	for _, mode := range []struct {
		name  string
		noSym bool
	}{{"on", false}, {"off", true}} {
		sys := benchSystem(b, "MSI_nonblocking_cache", 2, 1, 1, mode.noSym)
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mc.Check(sys, mc.Options{MaxStates: 2_000_000, DisableTraces: true})
				if res.Outcome != mc.Complete {
					b.Fatalf("unexpected outcome %v", res)
				}
				b.ReportMetric(float64(res.States), "states")
			}
		})
	}
}

// Ablation (DESIGN.md §5.5): ICN buffer capacity sweep — the Class 2
// deadlock manifests already at the smallest capacities.
func BenchmarkBufferCapacitySweep(b *testing.B) {
	p := protocols.MustLoad("MSI_blocking_cache")
	vn, n := PerMessageVN(p)
	for _, cap := range []int{1, 2, 3} {
		sys, err := New(Config{
			Protocol: p, Caches: 3, Dirs: 2, Addrs: 2,
			VN: vn, NumVNs: n, GlobalCap: cap, LocalCap: cap,
		})
		if err != nil {
			b.Fatal(err)
		}
		sc := NewScenario(sys)
		for i := 0; i < 2; i++ {
			if err := sc.Core(i, i, protocol.Store); err != nil {
				b.Fatal(err)
			}
			if err := sc.Handle(3+i, "GetM", i); err != nil {
				b.Fatal(err)
			}
			if err := sc.Handle(i, "Data", i); err != nil {
				b.Fatal(err)
			}
		}
		seed := sc.State()
		b.Run("cap"+string(rune('0'+cap)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mc.Check(&Seeded{System: sys, Seeds: [][]byte{seed}},
					mc.Options{Strategy: mc.DFS, MaxStates: 600_000, DisableTraces: true})
				if res.Outcome != mc.Deadlock && cap >= 2 {
					b.Fatalf("cap %d: %v", cap, res)
				}
				b.ReportMetric(float64(res.States), "states")
			}
		})
	}
}

// BenchmarkEncodeDecode measures the state codec.
func BenchmarkEncodeDecode(b *testing.B) {
	sys := benchSystem(b, "CHI", 3, 2, 2, false)
	st := sys.Initial()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := sys.decode(st)
		if enc := sys.encode(dec); len(enc) != len(st) {
			b.Fatal("codec mismatch")
		}
	}
}
