package experiments

import "testing"

// testEnv loads a fresh environment for a test that mutates the dataset
// (OLTP, refresh functions); read-only tests share sharedTestEnv.
func testEnv(t testing.TB) *Env {
	t.Helper()
	e, err := NewEnv(DefaultConfig())
	if err != nil {
		t.Fatalf("env: %v", err)
	}
	return e
}
