package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinyConfig is the smallest dataset the experiments still run on.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.SF = 0.002
	return cfg
}

// tinyParams bounds every parameterized experiment to a few seconds.
func tinyParams() Params {
	return Params{
		Streams:       2,
		Txns:          40,
		Workers:       []int{1, 2},
		TenantWeights: []float64{3, 1},
		ScanBlocks:    300,
		ScanRounds:    1,
		Shards:        []int{1, 2},
		XShard:        0.5,
	}
}

func byID(t *testing.T, id string) Experiment {
	t.Helper()
	for _, x := range Registry() {
		if x.ID == id {
			return x
		}
	}
	t.Fatalf("no experiment %q in the registry", id)
	return Experiment{}
}

// The registry is the one list of experiments: ids are unique, in the
// order `hbench -exp all` has always run them with the re-homed ablations
// after, and every entry says what it measures and can run.
func TestRegistryOrderAndDocs(t *testing.T) {
	want := []string{
		"fig4", "fig5", "table4", "fig6", "table5", "table6", "fig9", "table7", "fig11",
		"oltp", "iosched", "txnscale", "tenants", "htap", "shards", "lsm",
		"table9", "fig12",
		"abl-trim", "abl-wb", "abl-rule5", "abl-async", "ext-arc",
	}
	var got []string
	for _, x := range Registry() {
		got = append(got, x.ID)
		if x.Doc == "" || x.Run == nil {
			t.Errorf("%s: entry needs a Doc and a Run", x.ID)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registry order\n got %v\nwant %v", got, want)
	}
}

// Experiments that build their own storage must not trigger a TPC-H load.
func TestSuiteLoadsLazily(t *testing.T) {
	var out strings.Builder
	s := &Suite{Cfg: tinyConfig(), Out: &out}
	if _, err := s.Run(byID(t, "shards"), tinyParams()); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 || s.envs[SingleQueryEnv] != nil || s.envs[ThroughputEnv] != nil {
		t.Fatalf("shards loaded a dataset: %q", out.String())
	}
	if _, err := s.Run(byID(t, "table4"), tinyParams()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "loading dataset...") || s.envs[SingleQueryEnv] == nil {
		t.Fatalf("table4 ran without the dataset: %q", out.String())
	}
}

// leafNames collects the names of the numeric and boolean leaves of a
// decoded JSON value as dotted paths, with array indexes and numeric map
// keys (classes, tenants, request types) folded to "*": the names
// benchdiff lines two files up by, minus what depends on the run's size.
func leafNames(prefix string, v any, out map[string]bool) {
	switch t := v.(type) {
	case map[string]any:
		for k, e := range t {
			if _, err := strconv.Atoi(k); err == nil {
				k = "*"
			}
			leafNames(prefix+"."+k, e, out)
		}
	case []any:
		for _, e := range t {
			leafNames(prefix+".*", e, out)
		}
	case float64, bool:
		out[prefix] = true
	}
}

// freshLeafNames runs experiment id at tiny size and returns the leaf
// names of its marshalled result.
func freshLeafNames(t *testing.T, suite *Suite, id string) map[string]bool {
	t.Helper()
	res, err := suite.Run(byID(t, id), tinyParams())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s: marshal: %v", id, err)
	}
	var decoded any
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	leafNames(id, decoded, names)
	return names
}

// The htap population — eight OLTP sessions and a scanner, closed on
// the device scheduler — waits on page locks, commit batches and the
// log all at once; any of those waits left uncounted hangs the run as
// soon as goroutines really run in parallel. It must finish at any
// GOMAXPROCS.
func TestHTAPRunsAtAnyParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the htap driver three times")
	}
	suite := &Suite{Cfg: tinyConfig()}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		done := make(chan error, 1)
		go func() {
			_, err := suite.Run(byID(t, "htap"), tinyParams())
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
		case <-time.After(60 * time.Second):
			buf := make([]byte, 1<<20)
			t.Fatalf("GOMAXPROCS=%d: htap still running after 60s\n%s", procs, buf[:runtime.Stack(buf, true)])
		}
	}
}

func sortedNames(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// For every committed BENCH file of a simulated experiment, a tiny run of
// the same id marshals to the same leaf names, so benchdiff keeps lining
// fresh files up against committed ones.
func TestJSONLeafNamesMatchCommittedBENCH(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven experiment drivers")
	}
	// The committed files sit at the repository root, two levels above
	// this file, wherever the test binary runs.
	_, self, _, _ := runtime.Caller(0)
	root := filepath.Join(filepath.Dir(self), "..", "..")
	suite := &Suite{Cfg: tinyConfig()}
	for _, id := range []string{"oltp", "iosched", "txnscale", "tenants", "htap", "shards", "lsm"} {
		buf, err := os.ReadFile(filepath.Join(root, "BENCH_"+id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Experiments map[string]any `json:"experiments"`
		}
		if err := json.Unmarshal(buf, &doc); err != nil {
			t.Fatalf("BENCH_%s.json: %v", id, err)
		}
		want := map[string]bool{}
		leafNames(id, doc.Experiments[id], want)

		got := freshLeafNames(t, suite, id)
		if !reflect.DeepEqual(got, want) {
			for _, name := range sortedNames(want) {
				if !got[name] {
					t.Errorf("%s: committed leaf %s missing from a fresh run", id, name)
				}
			}
			for _, name := range sortedNames(got) {
				if !want[name] {
					t.Errorf("%s: fresh run has leaf %s the committed file lacks", id, name)
				}
			}
		}
	}
}

// Single-stream experiments are functions of (config, seed): two suites
// over two freshly loaded datasets print the same bytes.
func TestSingleStreamExperimentsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five experiments twice")
	}
	ids := []string{"fig5", "table5", "fig9", "abl-trim", "oltp"}
	run := func() map[string]string {
		suite := &Suite{Cfg: tinyConfig()}
		out := map[string]string{}
		for _, id := range ids {
			res, err := suite.Run(byID(t, id), tinyParams())
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out[id] = res.Format()
		}
		return out
	}
	first, second := run(), run()
	for _, id := range ids {
		if first[id] != second[id] {
			t.Errorf("%s differs between two runs:\n%s\n%s", id, first[id], second[id])
		}
	}
}

// The arms re-homed from the root benchmarks: every row is there, every
// simulated time is positive, the result marshals. Like the benchmarks
// they replace, they report directions without asserting them.
func TestAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five experiments")
	}
	suite := &Suite{Cfg: tinyConfig()}
	for id, arms := range map[string][]string{
		"abl-trim":  {"trim-on", "trim-off"},
		"abl-wb":    {"b=0%", "b=10%", "b=30%"},
		"abl-rule5": {"rule5-on", "rule5-off"},
		"abl-async": {"sync", "async"},
		"ext-arc":   {"Q21-lru", "Q21-arc", "Q21-hstorage"},
	} {
		res, err := suite.Run(byID(t, id), tinyParams())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		abl := res.(Ablation)
		if len(abl.Arms) != len(arms) {
			t.Fatalf("%s: %d arms, want %v", id, len(abl.Arms), arms)
		}
		text := abl.Format()
		for i, a := range abl.Arms {
			if a.Arm != arms[i] || a.Elapsed <= 0 || !strings.Contains(text, a.Arm) {
				t.Errorf("%s arm %d: %+v, want %s with a positive time, printed in\n%s", id, i, a, arms[i], text)
			}
		}
		if _, err := json.Marshal(res); err != nil {
			t.Errorf("%s: marshal: %v", id, err)
		}
	}
}

// Every arm of a rig-based experiment opens the dataset the previous arm
// left behind. At this size an arm splits the root of an index; an arm
// that dropped its log without flushing left the next one a torn store
// ("btree: unknown node type" on the last mode).
func TestIOSchedArmsShareOneConsistentDataset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SF = 0.005
	suite := &Suite{Cfg: cfg}
	res, err := suite.Run(byID(t, "iosched"), Params{Streams: 3, Txns: 150})
	if err != nil {
		t.Fatal(err)
	}
	if runs := res.(IOSchedRuns); len(runs) != 8 {
		t.Fatalf("%d arms ran, want scheduler and FIFO under four modes", len(runs))
	}
}
