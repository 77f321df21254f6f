package machine

import (
	"fmt"
	"testing"

	"minvn/internal/protocol"
)

// TestSuccessorsNamedParity: SuccessorsNamed must produce exactly the
// successor sequence of Successors, with one well-formed rule label
// per successor, spelled exactly as the rule-firing telemetry expects.
func TestSuccessorsNamedParity(t *testing.T) {
	for _, proto := range []string{"MSI_nonblocking_cache", "MSI_blocking_cache", "CHI"} {
		sys := newSys(t, proto, 2, 1, 1, "permsg")
		// Every label the system may emit, spelled as telemetry has
		// always spelled it.
		known := map[string]bool{}
		for _, ev := range protocol.CoreEvents {
			known["core/"+string(ev)] = true
		}
		for vn := 0; vn < sys.cfg.NumVNs; vn++ {
			known[fmt.Sprintf("deliver/vn%d", vn)] = true
		}
		for _, name := range sys.msgNames {
			known["process/"+name] = true
		}

		// Walk a BFS prefix comparing both expansion paths state by
		// state.
		frontier := sys.Initial()
		seen := map[string]bool{}
		checked := 0
		for len(frontier) > 0 && checked < 300 {
			var next [][]byte
			for _, st := range frontier {
				k := string(sys.Canonicalize(st))
				if seen[k] {
					continue
				}
				seen[k] = true
				checked++

				plain, err := sys.Successors(st)
				if err != nil {
					t.Fatalf("%s: Successors: %v", proto, err)
				}
				named, labels, err := sys.SuccessorsNamed(st)
				if err != nil {
					t.Fatalf("%s: SuccessorsNamed: %v", proto, err)
				}
				if len(named) != len(plain) {
					t.Fatalf("%s: %d named vs %d plain successors", proto, len(named), len(plain))
				}
				if len(labels) != len(named) {
					t.Fatalf("%s: %d labels for %d successors", proto, len(labels), len(named))
				}
				for i := range plain {
					if string(named[i]) != string(plain[i]) {
						t.Fatalf("%s: successor %d differs between paths", proto, i)
					}
					if !known[labels[i]] {
						t.Fatalf("%s: malformed rule label %q", proto, labels[i])
					}
				}
				next = append(next, named...)
			}
			frontier = next
		}
		if checked < 10 {
			t.Fatalf("%s: parity walk covered only %d states", proto, checked)
		}
	}
}
