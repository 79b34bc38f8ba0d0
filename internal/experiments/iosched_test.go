package experiments

import (
	"testing"
	"time"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/hybrid"
)

// TestIOSchedExperiment runs the scheduler contention experiment on the
// hStorage configuration, FIFO vs scheduler, and checks its contract:
// both arms complete the full workload, per-class latency histograms
// are populated (log class included), and the scheduler arm does not
// lose throughput to the FIFO arm.
func TestIOSchedExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment driver")
	}
	e := testEnv(t)
	var fifo, sched IOSchedRun
	for _, on := range []bool{false, true} {
		run, err := e.RunIOSched(hybrid.HStorage, 2, 60, on)
		if err != nil {
			t.Fatal(err)
		}
		if run.Queries != 2*len(ioschedQueries) {
			t.Fatalf("sched=%v: %d queries completed, want %d", on, run.Queries, 2*len(ioschedQueries))
		}
		if run.Commits == 0 || run.CommitsPerSec <= 0 {
			t.Fatalf("sched=%v: no commit throughput (%d commits)", on, run.Commits)
		}
		if run.Makespan <= 0 {
			t.Fatalf("sched=%v: empty makespan", on)
		}
		logH := run.ClassLat[dss.ClassLog]
		if logH.Count == 0 {
			t.Fatalf("sched=%v: no log-class latency recorded", on)
		}
		seqH := run.ClassLat[dss.DefaultPolicySpace().Sequential()]
		if seqH.Count == 0 {
			t.Fatalf("sched=%v: no sequential-class latency recorded", on)
		}
		if on {
			sched = run
		} else {
			fifo = run
		}
	}
	t.Log("\n" + IOSchedRuns{fifo, sched}.Format())

	// The headline claim, asserted loosely to stay robust to goroutine
	// interleaving: the scheduler arm must not be slower overall, and
	// the pinned log class must not see a worse median.
	if sched.Makespan > fifo.Makespan*11/10 {
		t.Errorf("scheduler makespan %v worse than FIFO %v", sched.Makespan, fifo.Makespan)
	}
	if sched.CommitsPerSec < fifo.CommitsPerSec*0.9 {
		t.Errorf("scheduler commits/s %.1f worse than FIFO %.1f", sched.CommitsPerSec, fifo.CommitsPerSec)
	}
	fifoLog := fifo.ClassLat[dss.ClassLog]
	schedLog := sched.ClassLat[dss.ClassLog]
	if s, f := schedLog.Quantile(0.5), fifoLog.Quantile(0.5); s > 2*f && s > f+time.Millisecond {
		t.Errorf("scheduler log p50 %v worse than FIFO %v", s, f)
	}

	// Scheduler counters: coalescing and readahead must have fired on
	// the scheduler arm.
	var coalesced, prefetched int64
	for _, s := range sched.SchedStats {
		coalesced += s.Coalesced
		prefetched += s.PrefetchHits
	}
	if coalesced == 0 {
		t.Error("no coalesced grants recorded")
	}
	if prefetched == 0 {
		t.Error("no prefetch hits recorded")
	}
}
