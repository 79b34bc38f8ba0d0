package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadAcceptsKnownSchema(t *testing.T) {
	p := writeTemp(t, "ok.json", `{"schema":"hbench/v1","experiments":{"oltp":{"txns":150}}}`)
	doc, err := load(p)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "hbench/v1" || doc.Experiments["oltp"] == nil {
		t.Fatalf("bad doc: %+v", doc)
	}
}

func TestLoadRejectsUnknownSchema(t *testing.T) {
	cases := map[string]string{
		"future":  `{"schema":"hbench/v2","experiments":{}}`,
		"missing": `{"experiments":{}}`,
		"empty":   `{"schema":"","experiments":{}}`,
	}
	for name, content := range cases {
		p := writeTemp(t, name+".json", content)
		if _, err := load(p); err == nil || !strings.Contains(err.Error(), "unknown schema") {
			t.Errorf("%s: want unknown-schema error, got %v", name, err)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := load(writeTemp(t, "bad.json", `{"schema":`)); err == nil {
		t.Error("want parse error for truncated JSON")
	}
	if _, err := load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("want error for missing file")
	}
}

func TestFlattenLeaves(t *testing.T) {
	out := map[string]float64{}
	flatten("", map[string]any{
		"runs": []any{
			map[string]any{"txns": 10.0, "ok": true},
			map[string]any{"txns": 20.0, "ok": false},
		},
		"label": "ignored",
	}, out)
	want := map[string]float64{
		"runs.0.txns": 10, "runs.0.ok": 1,
		"runs.1.txns": 20, "runs.1.ok": 0,
	}
	if len(out) != len(want) {
		t.Fatalf("flatten = %v, want %v", out, want)
	}
	for k, v := range want {
		if out[k] != v {
			t.Errorf("flatten[%s] = %v, want %v", k, out[k], v)
		}
	}
}

func TestDrift(t *testing.T) {
	if d := drift(100, 110); d < 0.09 || d > 0.1 {
		t.Errorf("drift(100,110) = %v", d)
	}
	if d := drift(0, 0); d != 0 {
		t.Errorf("drift(0,0) = %v", d)
	}
}

// doc builds a benchFile around one experiments tree.
func doc(exps map[string]any) benchFile {
	return benchFile{Schema: "hbench/v1", Experiments: exps}
}

// TestDiffWarnsPastThreshold: a leaf that moved past the threshold gets a
// WARN line and counts as drift; one that moved less, and identical
// documents, stay quiet.
func TestDiffWarnsPastThreshold(t *testing.T) {
	run := func(switches, makespan float64) benchFile {
		return doc(map[string]any{
			"hotpath": map[string]any{"anticipatory": []any{map[string]any{
				"stream_switches": switches,
				"makespan_ns":     makespan,
			}}},
		})
	}
	oldDoc, newDoc := run(48, 1000), run(120, 1100)
	var sb strings.Builder
	drifted := diff(&sb, oldDoc, newDoc, 0.2, 1e-9)
	out := sb.String()
	if drifted != 1 || !strings.Contains(out, "WARN hotpath.anticipatory.0.stream_switches") {
		t.Errorf("drifted = %d, want 1 (stream_switches only):\n%s", drifted, out)
	}
	if strings.Contains(out, "makespan_ns") {
		t.Errorf("a 10%% move reported at a 20%% threshold:\n%s", out)
	}

	sb.Reset()
	if drifted := diff(&sb, oldDoc, oldDoc, 0.2, 1e-9); drifted != 0 || strings.Contains(sb.String(), "WARN") {
		t.Errorf("identical docs drifted %d leaves:\n%s", drifted, sb.String())
	}
}
