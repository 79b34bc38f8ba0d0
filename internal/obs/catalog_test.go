package obs_test

import (
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/iosched"
	"hstoragedb/internal/obs"
	"hstoragedb/internal/shard"
)

// catalogRun attaches one set to a two-shard cluster and drives every
// instrumented layer: the account load, a scan larger than the buffer
// pool and the cache, and checkpoints (buffer pool, scheduler with
// readahead and tenant accounting, devices, cache, WAL), a cross-shard
// transfer (transactions, group commit, 2PC), a transfer that waits for
// another's page lock (lock manager) and a snapshot (MVCC). It returns
// the names of the registered metrics, labels dropped, and the cat/name
// of every span recorded.
func catalogRun(t *testing.T) (metrics, spans map[string]bool) {
	t.Helper()
	set := &obs.Set{Reg: obs.NewRegistry(), Tracer: obs.NewTracer(obs.TraceConfig{SampleEvery: 1})}
	c, err := shard.New(shard.Config{
		Shards: 2,
		Storage: hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 64,
			Sched: iosched.Config{TenantWeights: map[dss.TenantID]float64{dss.DefaultTenant: 1}}},
		BufferPoolPages: 16,
		WAL:             wal.Config{SegmentPages: 64, GroupCommitWindow: 50 * time.Microsecond},
		Obs:             set,
	})
	if err != nil {
		t.Fatal(err)
	}
	const accounts, balance = 4000, 100
	a, err := c.LoadAccounts(accounts, balance, 256)
	if err != nil {
		t.Fatal(err)
	}
	var from, to int64 = -1, -1
	for k := int64(0); from < 0 || to < 0; k++ {
		if c.ShardFor(k) == 0 && from < 0 {
			from = k
		} else if c.ShardFor(k) == 1 && to < 0 {
			to = k
		}
	}
	rs := c.NewSession()
	if err := c.Checkpoint(rs); err != nil {
		t.Fatal(err)
	}
	if total, err := a.TotalBalance(rs); err != nil || total != accounts*balance {
		t.Fatalf("total balance %d (%v), want %d", total, err, accounts*balance)
	}

	// The first transfer holds from's page lock until it commits; the
	// second asks for it from another session and waits.
	tx, err := rs.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Transfer(tx, from, to, 5); err != nil {
		t.Fatal(err)
	}
	waits := set.Registry().Counter("lockmgr.wait", obs.LInt("shard", int64(c.ShardFor(from))))
	done := make(chan error, 1)
	go func() {
		tx2, err := c.NewSession().Begin()
		if err == nil {
			if err = a.Transfer(tx2, from, to, 1); err == nil {
				err = tx2.Commit()
			}
		}
		done <- err
	}()
	for waits.Value() == 0 {
		runtime.Gosched()
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	snap := c.Shard(0).TM.BeginSnapshot(rs.At(0))
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(rs); err != nil {
		t.Fatal(err)
	}

	metrics, spans = map[string]bool{}, map[string]bool{}
	for _, m := range set.Registry().Snapshot() {
		metrics[strings.SplitN(m.Name, "{", 2)[0]] = true
	}
	for _, s := range set.Trace().Spans() {
		spans[s.Cat+"/"+s.Name] = true
	}
	return metrics, spans
}

// documented reads the first column of the table under an ARCHITECTURE.md
// heading: every backquoted name in it.
func documented(t *testing.T, doc, heading string) map[string]bool {
	t.Helper()
	i := strings.Index(doc, "\n"+heading+"\n")
	if i < 0 {
		t.Fatalf("ARCHITECTURE.md has no %q", heading)
	}
	names := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(doc[i+len(heading)+2:], "\n") {
		if strings.HasPrefix(line, "#") {
			break
		}
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		first := strings.Split(line, "|")[1]
		for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(first, -1) {
			names[m[1]] = true
		}
	}
	return names
}

// TestCatalogMatchesRegistry holds ARCHITECTURE.md's metric catalog and
// span taxonomy to what the code registers and records: a name on one
// side only fails. A catalog row may name several instruments, and
// `device.blocks.*` stands for the block counters; a row naming a
// Stats() field instead of an instrument says so in its kind column.
func TestCatalogMatchesRegistry(t *testing.T) {
	buf, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(buf)
	metrics, spans := catalogRun(t)

	wantMetrics := documented(t, doc, "### Metric catalog")
	for name := range wantMetrics {
		if strings.HasSuffix(name, ".*") {
			delete(wantMetrics, name)
			for m := range metrics {
				if strings.HasPrefix(m, strings.TrimSuffix(name, "*")) {
					wantMetrics[m] = true
				}
			}
		}
		if strings.HasPrefix(name, "hybrid.Snapshot.") {
			delete(wantMetrics, name) // a Stats() field, not an instrument
		}
	}
	compare(t, "metric", metrics, wantMetrics)
	compare(t, "span", spans, documented(t, doc, "### Span taxonomy"))
}

func compare(t *testing.T, kind string, got, doc map[string]bool) {
	t.Helper()
	for _, name := range sorted(got) {
		if !doc[name] {
			t.Errorf("%s %s is not in ARCHITECTURE.md", kind, name)
		}
	}
	for _, name := range sorted(doc) {
		if !got[name] {
			t.Errorf("ARCHITECTURE.md lists %s %s, which the run never produced", kind, name)
		}
	}
}

func sorted(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
