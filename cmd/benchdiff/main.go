// Command benchdiff compares two hbench -json documents (schema
// "hbench/v1") and reports relative drift between their numeric results.
//
// Usage:
//
//	benchdiff old.json new.json
//	benchdiff -warn 0.2 BENCH_tenants.json fresh.json
//
// Every numeric leaf under "experiments" is matched by its JSON path;
// leaves whose relative change exceeds the -warn threshold are listed.
// benchdiff always exits 0 when both files parse — drift is a warning,
// not a failure — so CI can surface regressions without going red over
// simulator noise. It exits 1 only on unreadable input, a schema it
// doesn't know, or two files whose schema versions differ (comparing
// incompatible layouts leaf-by-leaf would be silently meaningless).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"
	"strconv"
)

type benchFile struct {
	Schema      string         `json:"schema"`
	Experiments map[string]any `json:"experiments"`
}

func main() {
	log.SetFlags(0)
	warn := flag.Float64("warn", 0.2, "relative drift threshold above which a leaf is reported")
	abs := flag.Float64("min", 1e-9, "ignore leaves whose absolute values are both below this (noise floor)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-warn 0.2] old.json new.json")
		os.Exit(1)
	}
	oldDoc, err := load(flag.Arg(0))
	if err == nil {
		var newDoc benchFile
		newDoc, err = load(flag.Arg(1))
		if err == nil && newDoc.Schema != oldDoc.Schema {
			err = fmt.Errorf("schema mismatch: %s is %q, %s is %q — regenerate both with the same hbench",
				flag.Arg(0), oldDoc.Schema, flag.Arg(1), newDoc.Schema)
		}
		if err == nil {
			diff(os.Stdout, oldDoc, newDoc, *warn, *abs)
			return
		}
	}
	log.Fatalf("benchdiff: %v", err)
}

// diff flattens both documents and writes the comparison: a WARN line
// for every leaf past the threshold, and a summary. It returns the
// drifted-leaf count for tests.
func diff(w io.Writer, oldDoc, newDoc benchFile, warn, abs float64) int {
	oldLeaves := map[string]float64{}
	flatten("", oldDoc.Experiments, oldLeaves)
	newLeaves := map[string]float64{}
	flatten("", newDoc.Experiments, newLeaves)

	var paths []string
	for p := range oldLeaves {
		if _, ok := newLeaves[p]; ok {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)

	drifted := 0
	for _, p := range paths {
		a, b := oldLeaves[p], newLeaves[p]
		if math.Abs(a) < abs && math.Abs(b) < abs {
			continue
		}
		if drift(a, b) > warn {
			drifted++
			fmt.Fprintf(w, "WARN %-70s %14g -> %-14g (%+.1f%%)\n", p, a, b, 100*(b-a)/math.Max(math.Abs(a), abs))
		}
	}
	onlyOld, onlyNew := 0, 0
	for p := range oldLeaves {
		if _, ok := newLeaves[p]; !ok {
			onlyOld++
		}
	}
	for p := range newLeaves {
		if _, ok := oldLeaves[p]; !ok {
			onlyNew++
		}
	}
	fmt.Fprintf(w, "benchdiff: %d comparable leaves, %d over %.0f%% drift", len(paths), drifted, 100*warn)
	if onlyOld > 0 || onlyNew > 0 {
		fmt.Fprintf(w, " (%d only in old, %d only in new)", onlyOld, onlyNew)
	}
	fmt.Fprintln(w)
	return drifted
}

// knownSchemas are the -json document versions this benchdiff can diff.
var knownSchemas = map[string]bool{"hbench/v1": true}

// load reads and validates one hbench -json document. An unknown or
// missing schema is an error — diffing documents whose layout this
// binary does not understand would silently compare unrelated leaves.
func load(path string) (benchFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return benchFile{}, err
	}
	var doc benchFile
	if err := json.Unmarshal(buf, &doc); err != nil {
		return benchFile{}, fmt.Errorf("%s: %v", path, err)
	}
	if !knownSchemas[doc.Schema] {
		return benchFile{}, fmt.Errorf("%s: unknown schema %q (want hbench/v1; regenerate with a current hbench)", path, doc.Schema)
	}
	return doc, nil
}

// flatten walks a decoded JSON tree collecting numeric leaves keyed by
// their dotted path. Array elements use their index as the key, so runs
// with the same experiment list line up element by element.
func flatten(prefix string, v any, out map[string]float64) {
	switch t := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			flatten(join(prefix, k), t[k], out)
		}
	case []any:
		for i, e := range t {
			flatten(join(prefix, strconv.Itoa(i)), e, out)
		}
	case float64:
		out[prefix] = t
	case bool:
		// Booleans drift too (a recovery check flipping false matters):
		// compare them as 0/1.
		if t {
			out[prefix] = 1
		} else {
			out[prefix] = 0
		}
	}
}

func join(prefix, key string) string {
	if prefix == "" {
		return key
	}
	return prefix + "." + key
}

// drift returns the relative change between a and b, symmetric in sign.
func drift(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(b-a) / den
}
