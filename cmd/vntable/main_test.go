package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"minvn/internal/analysis"
	"minvn/internal/cliflag"
	"minvn/internal/mc"
	"minvn/internal/protocols"
	"minvn/internal/vnassign"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGolden locks the static Table I output (no model checking, so
// the run is fast and fully deterministic). Regenerate with:
// go test ./cmd/vntable -run TestGolden -update
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"table", nil},
		{"table_extensions", []string{"-extensions"}},
		{"table_family", []string{"-extensions", "-family"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("run(%v) = %d, stderr: %s", tc.args, code, stderr.String())
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("output changed; run with -update if intended.\n--- got ---\n%s--- want ---\n%s", stdout.String(), want)
			}
		})
	}
}

// TestTableIDeadlockCellsAtDefaultBound: the row (6) deadlock needs
// 301,611 states at the default 3c/2d/2a, so the default -max-states
// must reach it (a bound of 300,000 once missed it).
func TestTableIDeadlockCellsAtDefaultBound(t *testing.T) {
	if testing.Short() {
		t.Skip("two 300k-state deadlock hunts")
	}
	for _, name := range tableI[5].protos {
		p := protocols.MustLoad(name)
		a := vnassign.AssignFromAnalysis(analysis.Analyze(p))
		out, ok, res := runModelCheck(p, a, "deadlock", 3, 2, 2, defaultMaxStates,
			&cliflag.Telemetry{}, mc.EngineAuto, mc.StoreExact, 1, 0, io.Discard)
		if !ok || res.Outcome != mc.Deadlock {
			t.Errorf("%s: %s", name, out)
		}
	}
}
