package hybrid

import (
	"sync"
	"testing"
	"time"

	"hstoragedb/internal/dss"
)

// TestConcurrentSubmitters hammers each cache implementation from many
// goroutines; invariants must hold and no counters may be lost. Run with
// -race to exercise the locking.
func TestConcurrentSubmitters(t *testing.T) {
	for _, mode := range []Mode{LRU, HStorage, ARC} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			sys, err := New(Config{Mode: mode, CacheBlocks: 128})
			if err != nil {
				t.Fatal(err)
			}
			space := dss.DefaultPolicySpace()
			classes := []dss.Class{space.Temporary(), 2, 3, space.Sequential(), dss.ClassWriteBuffer}

			var wg sync.WaitGroup
			const workers = 8
			const each = 500
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var at time.Duration
					for i := 0; i < each; i++ {
						cl := classes[(w+i)%len(classes)]
						lba := int64((w*37 + i) % 512)
						req := read(cl, lba, 1)
						if i%5 == 0 {
							req = write(cl, lba, 1)
						}
						at = sys.Submit(at, req)
					}
				}(w)
			}
			wg.Wait()

			snap := sys.Stats()
			if snap.Hits+snap.Misses != workers*each {
				t.Fatalf("lost requests: %d recorded, want %d",
					snap.Hits+snap.Misses, workers*each)
			}
			switch pol := sys.(*core).pol.(type) {
			case *priorityPolicy:
				pol.checkInvariants(t)
			case *arcPolicy:
				pol.checkInvariants(t)
			}
		})
	}
}

// TestCompletionTimesRespectQueueing: two requests submitted "at the same
// time" by different goroutines cannot both finish as if the device were
// idle — the later one queues.
func TestCompletionTimesRespectQueueing(t *testing.T) {
	sys, err := New(Config{Mode: HDDOnly})
	if err != nil {
		t.Fatal(err)
	}
	d1 := sys.Submit(0, read(2, 1_000_000, 1))
	d2 := sys.Submit(0, read(2, 2_000_000, 1))
	if d2 <= d1 {
		t.Fatalf("second request (%v) did not queue behind the first (%v)", d2, d1)
	}
}
