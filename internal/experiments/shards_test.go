package experiments

import (
	"strings"
	"testing"
)

// TestShardsSmoke runs the shard-scaling experiment small: one and two
// shards with a cross-shard arm must complete, conserve the total
// balance (RunShards errors otherwise), and account every cross-shard
// transfer to the 2PC coordinator.
func TestShardsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment driver")
	}
	r1, err := RunShards(1, 2, 40, 0.5, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunShards(2, 2, 40, 0.5, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []ShardsRun{r1, r2} {
		if r.Txns == 0 || r.TxnsPerSec <= 0 || r.LocalCommits == 0 {
			t.Fatalf("empty run: %+v", r)
		}
	}
	// A single shard never crosses; two shards at xshard 0.5 must.
	if r1.CrossShard != 0 || r1.TwoPCCommits != 0 {
		t.Fatalf("single shard ran 2PC: %+v", r1)
	}
	if r2.CrossShard == 0 || r2.TwoPCCommits != r2.CrossShard {
		t.Fatalf("cross-shard accounting inconsistent: %+v", r2)
	}
	out := ShardsRuns{r1, r2}.Format()
	if !strings.Contains(out, "2PC") || !strings.Contains(out, "txns/s") {
		t.Fatalf("report malformed:\n%s", out)
	}
}
