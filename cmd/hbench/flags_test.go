package main

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hstoragedb/internal/experiments"
)

func TestParseShards(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		err  bool
	}{
		{in: "1,2,4", want: []int{1, 2, 4}},
		{in: " 2 , 8 ", want: []int{2, 8}},
		{in: "0,-3,4", want: []int{1, 1, 4}}, // below one clamps, like -txns
		{in: "4", want: []int{4}},
		{in: "two", err: true},
		{in: "1,2,x", err: true},
		{in: "", err: true},
		{in: " , ", err: true},
	}
	for _, c := range cases {
		got, err := parseShards(c.in)
		if c.err {
			if err == nil {
				t.Errorf("parseShards(%q): want error, got %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseShards(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseShards(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestClampXShard(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{0.2, 0.2},
		{1, 1},
		{-0.5, 0},
		{1.5, 1},
		{math.NaN(), 0},
	}
	for _, c := range cases {
		if got := clampXShard(c.in); got != c.want {
			t.Errorf("clampXShard(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseWorkersRejectsBadCounts(t *testing.T) {
	for _, bad := range []string{"", "0", "-1", "1,zero"} {
		if got, err := parseWorkers(bad); err == nil {
			t.Errorf("parseWorkers(%q): want error, got %v", bad, got)
		}
	}
	got, err := parseWorkers("1, 4 ,8")
	if err != nil || !reflect.DeepEqual(got, []int{1, 4, 8}) {
		t.Errorf("parseWorkers(\"1, 4 ,8\") = %v, %v", got, err)
	}
}

func TestParseTenants(t *testing.T) {
	got, err := parseTenants("4, 2 ,0.5")
	if err != nil || !reflect.DeepEqual(got, []float64{4, 2, 0.5}) {
		t.Errorf("parseTenants(\"4, 2 ,0.5\") = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-1", "1,heavy"} {
		if got, err := parseTenants(bad); err == nil {
			t.Errorf("parseTenants(%q): want error, got %v", bad, got)
		}
	}
}

// The -exp help text is generated from the registry, so it names exactly
// the registry's ids (plus "all"), in registry order.
func TestExpUsageListsTheRegistry(t *testing.T) {
	usage := expUsage()
	open, close := strings.Index(usage, "("), strings.Index(usage, ")")
	if open < 0 || close < open {
		t.Fatalf("no id list in usage:\n%s", usage)
	}
	var want []string
	for _, x := range experiments.Registry() {
		want = append(want, x.ID)
		if !strings.Contains(usage, "\n  "+x.ID+" ") {
			t.Errorf("usage has no description line for %q", x.ID)
		}
	}
	want = append(want, "all")
	if got := strings.Fields(usage[open+1 : close]); !reflect.DeepEqual(got, want) {
		t.Errorf("usage lists %v, registry has %v", got, want)
	}
}
