package experiments

// Golden outputs for every paper-numbered experiment table. These files
// were captured before the control loop was refactored onto the
// speculation-policy registry (internal/policy) and prove that the
// default paper policy still produces byte-identical tables: rendering a
// different byte here means the refactor changed a simulated decision.
//
// Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestGoldenPaperTables -update-golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden experiment tables from the current code")

// goldenIDs are the experiments whose rendered output is pinned: the
// paper-numbered reproductions (tables and figures of the source
// paper's evaluation), the calibration and error-profile steps of the
// method, and the two comparison harnesses, which share one
// measurement loop.
var goldenIDs = []string{
	"fig1", "fig2", "fig3", "fig4", "tab1", "tab2",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
	"fig17", "fig18",
	"compare", "policies", "weaklines", "errprofile",
}

func TestGoldenPaperTables(t *testing.T) {
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q is not registered", id)
			}
			res, err := e.Run(Options{Seed: 1, Fast: true})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.Write(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", id+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s output diverged from the pre-policy-refactor golden\n--- got ---\n%s\n--- want ---\n%s",
					id, buf.Bytes(), want)
			}
		})
	}
}
