package iosched

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestReqTreeRandomized drives the band B-tree through random
// insert/delete churn against a reference sorted slice, checking min,
// seekGE, seekLT and the two ordered walks after every operation. The
// delete rebalancing (borrow/merge) is the part a few directed cases
// would not reach.
func TestReqTreeRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tree := reqTree{pool: new(nodePool)}
		var ref []*request
		refLess := func(i, j int) bool { return reqKey(ref[i]).less(reqKey(ref[j])) }
		seq := uint64(0)
		for step := 0; step < 4000; step++ {
			if len(ref) == 0 || rng.Intn(5) < 3 {
				r := &request{
					lba:     int64(rng.Intn(64)),
					vfinish: float64(rng.Intn(4)),
					seq:     seq,
				}
				seq++
				tree.insert(r)
				ref = append(ref, r)
				sort.Slice(ref, refLess)
			} else {
				i := rng.Intn(len(ref))
				tree.delete(ref[i])
				ref = append(ref[:i], ref[i+1:]...)
			}
			if tree.size != len(ref) {
				t.Fatalf("seed %d step %d: size %d, want %d", seed, step, tree.size, len(ref))
			}
			if min := tree.min(); len(ref) == 0 {
				if min != nil {
					t.Fatalf("seed %d step %d: min of empty tree = %v", seed, step, min)
				}
			} else if min != ref[0] {
				t.Fatalf("seed %d step %d: min = %v, want %v", seed, step, reqKey(min), reqKey(ref[0]))
			}
			// Probe around a random key.
			k := treeKey{vfinish: float64(rng.Intn(4)), lba: int64(rng.Intn(64)), seq: uint64(rng.Intn(int(seq + 1)))}
			var wantGE, wantLT *request
			for _, r := range ref {
				if !reqKey(r).less(k) {
					wantGE = r
					break
				}
			}
			for i := len(ref) - 1; i >= 0; i-- {
				if reqKey(ref[i]).less(k) {
					wantLT = ref[i]
					break
				}
			}
			if got := tree.seekGE(k); got != wantGE {
				t.Fatalf("seed %d step %d: seekGE(%v) = %v, want %v", seed, step, k, got, wantGE)
			}
			if got := tree.seekLT(k); got != wantLT {
				t.Fatalf("seed %d step %d: seekLT(%v) = %v, want %v", seed, step, k, got, wantLT)
			}
			if step%97 == 0 {
				// A full ordered walk.
				var up []*request
				tree.ascendGE(treeKey{vfinish: -1}, func(r *request) bool {
					up = append(up, r)
					return true
				})
				if len(up) != len(ref) {
					t.Fatalf("seed %d step %d: ascend visited %d, want %d", seed, step, len(up), len(ref))
				}
				for i, r := range up {
					if r != ref[i] {
						t.Fatalf("seed %d step %d: ascend[%d] = %v, want %v", seed, step, i, reqKey(r), reqKey(ref[i]))
					}
				}
			}
		}
		// Drain to empty through delete alone, so the merge path runs the
		// tree all the way back down.
		for len(ref) > 0 {
			i := rng.Intn(len(ref))
			tree.delete(ref[i])
			ref = append(ref[:i], ref[i+1:]...)
		}
		if tree.size != 0 || tree.min() != nil {
			t.Fatalf("seed %d: tree not empty after full drain: size %d", seed, tree.size)
		}
	}
}

// TestAgeHeapRandomized cross-checks the intrusive aging heap's min and
// mid-heap removal against a reference slice.
func TestAgeHeapRandomized(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h ageHeap
		var ref []*request
		seq := uint64(0)
		for step := 0; step < 3000; step++ {
			if len(ref) == 0 || rng.Intn(2) == 0 {
				r := &request{arrive: time.Duration(rng.Intn(50)) * time.Millisecond, seq: seq, ageIdx: -1}
				seq++
				h.push(r)
				ref = append(ref, r)
			} else {
				i := rng.Intn(len(ref))
				h.remove(ref[i])
				ref = append(ref[:i], ref[i+1:]...)
			}
			if h.len() != len(ref) {
				t.Fatalf("seed %d step %d: len %d, want %d", seed, step, h.len(), len(ref))
			}
			var want *request
			for _, r := range ref {
				if want == nil || olderThan(r, want) {
					want = r
				}
			}
			if got := h.min(); got != want {
				t.Fatalf("seed %d step %d: min = %v, want %v", seed, step, got, want)
			}
		}
	}
}
