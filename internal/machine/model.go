package machine

import (
	"fmt"
	"strings"

	"minvn/internal/protocol"
)

// The System implements mc.Model over its encoded states.

// Initial returns the single initial state: every controller in its
// initial stable state, the network empty.
func (s *System) Initial() [][]byte {
	return [][]byte{s.encode(s.newState())}
}

// Successors enumerates all successor states. Self-loop transitions
// (e.g. a load hit, which changes nothing) are filtered out, matching
// Murphi's deadlock semantics: a state whose only enabled rules map it
// to itself is deadlocked.
func (s *System) Successors(raw []byte) ([][]byte, error) {
	st := s.decode(raw)
	if err := s.checkInvariants(st); err != nil {
		return nil, err
	}
	var out [][]byte
	err := s.rules(st, func(_ Rule, next *state) {
		enc := s.encode(next)
		if string(enc) != string(raw) {
			out = append(out, enc)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SuccessorsNamed implements the model checker's optional NamedModel
// extension: identical to Successors, plus a rule label per successor
// so telemetry can attribute transitions to the guarded rule family
// that fired. Labels aggregate the rule's enumeration parameters
// (plan, endpoint ids) into the protocol-level identity that matters
// for the paper's per-rule fire counts: the processor event for core
// rules, the virtual network for deliveries, and the consumed message
// name for processing rules.
func (s *System) SuccessorsNamed(raw []byte) ([][]byte, []string, error) {
	st := s.decode(raw)
	if err := s.checkInvariants(st); err != nil {
		return nil, nil, err
	}
	var out [][]byte
	var labels []string
	err := s.rules(st, func(r Rule, next *state) {
		enc := s.encode(next)
		if string(enc) != string(raw) {
			out = append(out, enc)
			labels = append(labels, s.ruleLabel(st, r))
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return out, labels, nil
}

// ruleLabel names a rule for telemetry attribution, from label tables
// built ahead of time so that labelling a successor does not allocate.
func (s *System) ruleLabel(st *state, r Rule) string {
	switch r.Kind {
	case RuleCore:
		if l, ok := coreLabels[r.Core]; ok {
			return l
		}
		return "core/" + string(r.Core)
	case RuleDeliver:
		return s.deliverLabels[r.VN]
	default:
		if m, ok := st.net.Head(r.Endpoint, r.PVN); ok {
			return s.processLabels[m.Name]
		}
		return "process/?"
	}
}

// coreLabels holds the labels of the protocol package's core events.
var coreLabels = func() map[protocol.CoreEvent]string {
	m := make(map[protocol.CoreEvent]string, len(protocol.CoreEvents))
	for _, ev := range protocol.CoreEvents {
		m[ev] = "core/" + string(ev)
	}
	return m
}()

// labelTable returns prefix+name for every name, carved out of one
// string so that a system's label table costs two allocations.
func labelTable(prefix string, names []string) []string {
	var b strings.Builder
	b.Grow(len(names) * (len(prefix) + 8))
	for _, name := range names {
		b.WriteString(prefix)
		b.WriteString(name)
	}
	all := b.String()
	out := make([]string, len(names))
	for i, name := range names {
		n := len(prefix) + len(name)
		out[i], all = all[:n], all[n:]
	}
	return out
}

// EnabledRules lists the enabled rules of a state, for the scenario
// driver and diagnostics.
func (s *System) EnabledRules(raw []byte) ([]Rule, error) {
	st := s.decode(raw)
	var out []Rule
	err := s.rules(st, func(r Rule, _ *state) {
		out = append(out, r)
	})
	return out, err
}

// Apply fires one rule on an encoded state.
func (s *System) Apply(raw []byte, r Rule) ([]byte, error) {
	st := s.decode(raw)
	var next *state
	var err error
	switch r.Kind {
	case RuleCore:
		next, err = s.applyCore(st, r)
	case RuleDeliver:
		next, err = s.applyDeliver(st, r)
	default:
		next, err = s.applyProcess(st, r)
	}
	if err != nil {
		return nil, err
	}
	return s.encode(next), nil
}

// Quiescent: every controller stable and the network drained.
func (s *System) Quiescent(raw []byte) bool {
	st := s.decode(raw)
	for c := range st.cache {
		for a := range st.cache[c] {
			if s.p.Cache.States[s.cacheStates[st.cache[c][a].state]].Transient {
				return false
			}
		}
	}
	for a := range st.l2 {
		if s.p.L2.States[s.l2States[st.l2[a].state]].Transient {
			return false
		}
	}
	for a := range st.dir {
		if s.p.Dir.States[s.dirStates[st.dir[a].state]].Transient {
			return false
		}
	}
	return st.net.Empty()
}

// Describe renders a state for counterexample traces.
func (s *System) Describe(raw []byte) string {
	st := s.decode(raw)
	var b strings.Builder
	for c := range st.cache {
		fmt.Fprintf(&b, "  cache %d:", c)
		for a := range st.cache[c] {
			e := st.cache[c][a]
			fmt.Fprintf(&b, "  a%d=%s", a, s.cacheStates[e.state])
			if e.acks != 0 {
				fmt.Fprintf(&b, "(acks=%d)", e.acks)
			}
			if e.saved != 0 {
				fmt.Fprintf(&b, "(saved=ep%d", e.saved-1)
				if e.savedAcks != 0 {
					fmt.Fprintf(&b, " acks=%d", e.savedAcks)
				}
				b.WriteByte(')')
			}
		}
		b.WriteByte('\n')
	}
	for a := range st.l2 {
		e := st.l2[a]
		fmt.Fprintf(&b, "  l2(a%d) ep%d: %s", a, s.innerHome(a), s.l2States[e.state])
		if e.owner != 0 {
			fmt.Fprintf(&b, " owner=ep%d", e.owner-1)
		}
		if e.sharers != 0 {
			fmt.Fprintf(&b, " sharers=")
			for c := 0; c < 8; c++ {
				if e.sharers&(1<<uint(c)) != 0 {
					fmt.Fprintf(&b, "c%d", c)
				}
			}
		}
		if e.acks != 0 {
			fmt.Fprintf(&b, " acks=%d", e.acks)
		}
		if e.cacheAcks != 0 {
			fmt.Fprintf(&b, " outer-acks=%d", e.cacheAcks)
		}
		b.WriteByte('\n')
	}
	for a := range st.dir {
		e := st.dir[a]
		fmt.Fprintf(&b, "  dir(a%d) ep%d: %s", a, s.home(a), s.dirStates[e.state])
		if e.owner != 0 {
			fmt.Fprintf(&b, " owner=ep%d", e.owner-1)
		}
		if e.sharers != 0 {
			fmt.Fprintf(&b, " sharers=")
			for c := 0; c < 8; c++ {
				if e.sharers&(1<<uint(c)) != 0 {
					fmt.Fprintf(&b, "c%d", c)
				}
			}
		}
		if e.acks != 0 {
			fmt.Fprintf(&b, " acks=%d", e.acks)
		}
		b.WriteByte('\n')
	}
	if net := st.net.Format(s.msgNames); net != "" {
		b.WriteString(net)
	}
	return b.String()
}

// Seeded wraps a System to start exploration from given states
// instead of the reset state — e.g. from a scenario-built prefix such
// as the Fig. 3 setup, which makes deep deadlock hunts cheap while
// remaining sound (every seed is itself reachable).
type Seeded struct {
	*System
	Seeds [][]byte
}

// Initial returns the seed states.
func (s *Seeded) Initial() [][]byte { return s.Seeds }

// CacheState returns cache c's state name for addr in an encoded
// state (test helper).
func (s *System) CacheState(raw []byte, c, addr int) string {
	st := s.decode(raw)
	return s.cacheStates[st.cache[c][addr].state]
}

// DirState returns the home directory state name for addr.
func (s *System) DirState(raw []byte, addr int) string {
	st := s.decode(raw)
	return s.dirStates[st.dir[addr].state]
}

// L2State returns the L2 home state name for addr (two-level systems).
func (s *System) L2State(raw []byte, addr int) string {
	st := s.decode(raw)
	return s.l2States[st.l2[addr].state]
}

// InFlight counts in-flight messages in an encoded state.
func (s *System) InFlight(raw []byte) int {
	return s.decode(raw).net.InFlight()
}
