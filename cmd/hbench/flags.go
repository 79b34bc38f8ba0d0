package main

import (
	"fmt"
	"strconv"
	"strings"
)

// parseList parses a comma-separated flag value with parse, skipping
// empty entries; an empty list is an error.
func parseList[T any](s, what string, parse func(string) (T, bool)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, ok := parse(part)
		if !ok {
			return nil, fmt.Errorf("bad %s %q", what, part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no %ss", what)
	}
	return out, nil
}

// parseTenants parses the -tenants flag: positive tenant weights.
func parseTenants(s string) ([]float64, error) {
	return parseList(s, "tenant weight", func(part string) (float64, bool) {
		w, err := strconv.ParseFloat(part, 64)
		return w, err == nil && w > 0
	})
}

// parseShards parses the -shards flag. Malformed entries are errors;
// counts below one are clamped to a single shard (the same tolerance
// -txns gets), since a zero-shard cluster has no meaning but the sweep
// can still run.
func parseShards(s string) ([]int, error) {
	return parseList(s, "shard count", func(part string) (int, bool) {
		n, err := strconv.Atoi(part)
		return max(n, 1), err == nil
	})
}

// parseWorkers parses the -workers flag: positive worker counts.
func parseWorkers(s string) ([]int, error) {
	return parseList(s, "worker count", func(part string) (int, bool) {
		n, err := strconv.Atoi(part)
		return n, err == nil && n >= 1
	})
}

// clampXShard clamps the cross-shard fraction into [0,1]; NaN becomes 0.
func clampXShard(x float64) float64 {
	if !(x > 0) { // catches NaN too
		return 0
	}
	return min(x, 1)
}
