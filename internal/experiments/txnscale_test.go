package experiments

import (
	"strings"
	"testing"

	"hstoragedb/internal/hybrid"
)

// TestTxnScaleSmoke runs the scaling experiment small: one and four
// workers in hStorage mode must complete, commit, and show the
// group-commit coordinator batching concurrent committers.
func TestTxnScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment driver")
	}
	e := sharedTestEnv(t)
	r1, err := e.RunTxnScale(hybrid.HStorage, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := e.RunTxnScale(hybrid.HStorage, 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []TxnScaleRun{r1, r4} {
		if r.Txns == 0 || r.Commits == 0 || r.CommitsPerSec <= 0 {
			t.Fatalf("empty run: %+v", r)
		}
	}
	// Batch formation needs committers to overlap in real time, which a
	// loaded or single-core runner cannot guarantee — so assert only the
	// coordinator's accounting invariants here; the hbench sweep is
	// where the amortization itself is demonstrated.
	gc := r4.GroupCommit
	if gc.Batches <= 0 || gc.Batches > gc.Txns {
		t.Fatalf("group commit accounting inconsistent: %+v", gc)
	}
	out := TxnScaleRuns{r1, r4}.Format()
	if !strings.Contains(out, "hStorage-DB") || !strings.Contains(out, "commits/s") {
		t.Fatalf("report malformed:\n%s", out)
	}
}
