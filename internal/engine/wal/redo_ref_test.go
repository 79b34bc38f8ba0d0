package wal

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"hstoragedb/internal/pagestore"
)

// refGap is the run gap every logged record has been written with. The
// reference keeps its own copy so that a change to runGap shows up as a
// change of bytes.
const refGap = 4

// refRuns is the byte-at-a-time encoder appendRuns replaced, kept as the
// reference its records must equal byte for byte: a run ends at the next
// equal stretch that is at least refGap long or reaches len(post), found
// by alternating refSame and refDiff.
func refRuns(dst, pre, post []byte) ([]byte, bool) {
	limit := len(dst) + len(post)
	end := 0
	for i := refDiff(pre, post, 0); i < len(post); {
		j := refSame(pre, post, i)
		k := refDiff(pre, post, j)
		for k < len(post) && k-j < refGap {
			j = refSame(pre, post, k)
			k = refDiff(pre, post, j)
		}
		if len(dst)+j-i >= limit {
			return dst, false
		}
		dst = binary.AppendUvarint(dst, uint64(i-end))
		dst = binary.AppendUvarint(dst, uint64(j-i))
		dst = append(dst, post[i:j]...)
		end, i = j, k
	}
	return dst, len(dst) < limit
}

// refDiff returns the first offset at or after i where post differs from
// pre, min(len(pre), len(post)) if there is none.
func refDiff(pre, post []byte, i int) int {
	n := min(len(pre), len(post))
	for ; i < n; i++ {
		if pre[i] != post[i] {
			return i
		}
	}
	return i
}

// refSame returns the first offset at or after i where post equals pre,
// len(post) if there is none.
func refSame(pre, post []byte, i int) int {
	for n := min(len(pre), len(post)); i < n; i++ {
		if pre[i] == post[i] {
			return i
		}
	}
	return len(post)
}

// refRedo is appendRedo over refRuns.
func refRedo(dst, pre, post []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(post)))
	if pre != nil {
		if d, ok := refRuns(dst, pre, post); ok {
			return d
		}
	}
	dst = binary.AppendUvarint(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(len(post)))
	return append(dst, post...)
}

// checkAgainstRef fails unless appendRuns and appendRedo write exactly
// the reference's bytes for (pre, post), with the same ok, after a
// non-empty prefix as well as into an empty buffer.
func checkAgainstRef(t *testing.T, pre, post []byte) {
	t.Helper()
	for _, prefix := range [][]byte{nil, {0xEE, 0xEE, 0xEE}} {
		pfx := len(prefix)
		got, ok := appendRuns(append([]byte(nil), prefix...), pre, post)
		want, wantOK := refRuns(append([]byte(nil), prefix...), pre, post)
		if ok != wantOK || !bytes.Equal(got, want) {
			t.Fatalf("%d-byte pre, %d-byte post, %d-byte prefix: runs ok=%v, %d bytes; reference ok=%v, %d bytes",
				len(pre), len(post), pfx, ok, len(got), wantOK, len(want))
		}
		if got, want := appendRedo(prefix, pre, post), refRedo(prefix, pre, post); !bytes.Equal(got, want) {
			t.Fatalf("%d-byte pre, %d-byte post, %d-byte prefix: redo of %d bytes, reference %d",
				len(pre), len(post), pfx, len(got), len(want))
		}
	}
}

// alphabet returns n random bytes drawn from {0, 1, ..., k-1}.
func alphabet(rng *rand.Rand, n, k int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(k))
	}
	return b
}

// leafCap is the number of leafImage entries an 8 KB page holds.
const leafCap = (pagestore.PageSize - 11) / 18

// leafImage is the image of a B-tree leaf of n entries with ascending
// keys — an 11-byte header, then per entry a key, a RID page and a RID
// slot (8, 8 and 2 bytes) — with one more entry inserted at ins unless
// ins is negative, which shifts every later entry 18 bytes right.
func leafImage(n, ins int) []byte {
	img := make([]byte, 11, 11+18*(n+1))
	img[0] = 1
	put := func(key, page int64, slot uint16) {
		img = binary.LittleEndian.AppendUint64(img, uint64(key))
		img = binary.LittleEndian.AppendUint64(img, uint64(page))
		img = binary.LittleEndian.AppendUint16(img, slot)
	}
	for i := 0; i < n; i++ {
		if i == ins {
			put(int64(1000+10*i-5), 77, 9)
		}
		put(int64(1000+10*i), int64(i/40), uint16(i%40))
	}
	if ins == n {
		put(int64(1000+10*n), 77, 9)
	}
	binary.LittleEndian.PutUint16(img[1:], uint16((len(img)-11)/18))
	binary.LittleEndian.PutUint64(img[3:], ^uint64(0))
	return img
}

// stretchPairs returns pages that differ everywhere but for one equal
// stretch of 1 to runGap+1 bytes, at every offset mod 8 from a few word
// positions and at the very end of the shorter image, with pre shorter
// than, as long as and longer than post.
func stretchPairs() [][2][]byte {
	var pairs [][2][]byte
	for _, size := range []int{7, 24, 40, 100, 1000} {
		for _, dl := range []int{-3, 0, 5} {
			post := make([]byte, size)
			for i := range post {
				post[i] = byte(i*7 + 1)
			}
			pre := make([]byte, size+dl)
			for i := range pre {
				pre[i] = byte(i*7+1) ^ 0xFF
			}
			n := min(len(pre), len(post))
			for l := 1; l <= runGap+1; l++ {
				offs := []int{n - l}
				for _, base := range []int{1, 8, 16, 3 * size / 4} {
					for m := 0; m < 8; m++ {
						offs = append(offs, base+m)
					}
				}
				for _, at := range offs {
					if at < 0 || at+l > n {
						continue
					}
					p := append([]byte(nil), pre...)
					copy(p[at:at+l], post[at:at+l])
					pairs = append(pairs, [2][]byte{p, post})
				}
			}
		}
	}
	return pairs
}

// TestRedoMatchesReference: for every shape of page change, the encoder
// writes the reference's bytes and reports the reference's ok.
func TestRedoMatchesReference(t *testing.T) {
	random := func(gen func(rng *rand.Rand) (pre, post []byte)) func() [][2][]byte {
		return func() [][2][]byte {
			rng := rand.New(rand.NewSource(5))
			var pairs [][2][]byte
			for i := 0; i < 400; i++ {
				pre, post := gen(rng)
				pairs = append(pairs, [2][]byte{pre, post})
			}
			return pairs
		}
	}
	page := func(rng *rand.Rand) []byte {
		b := make([]byte, rng.Intn(pagestore.PageSize+1))
		rng.Read(b)
		return b
	}
	for _, row := range []struct {
		name  string
		pairs func() [][2][]byte
	}{
		{"sparse edits", random(func(rng *rand.Rand) ([]byte, []byte) {
			pre := page(rng)
			return pre, edit(rng, pre)
		})},
		{"shifted leaf", random(func(rng *rand.Rand) ([]byte, []byte) {
			pre := alphabet(rng, pagestore.PageSize, 1+rng.Intn(8))
			return pre, shift(rng, pre)
		})},
		{"B-tree leaf insert", random(func(rng *rand.Rand) ([]byte, []byte) {
			n := rng.Intn(leafCap)
			return leafImage(n, -1), leafImage(n, rng.Intn(n+1))
		})},
		{"grown", random(func(rng *rand.Rand) ([]byte, []byte) {
			pre := page(rng)
			return pre, edit(rng, resize(rng, pre, len(pre)+rng.Intn(pagestore.PageSize-len(pre)+1)))
		})},
		{"truncated", random(func(rng *rand.Rand) ([]byte, []byte) {
			pre := page(rng)
			return pre, edit(rng, resize(rng, pre, rng.Intn(len(pre)+1)))
		})},
		{"nil pre", random(func(rng *rand.Rand) ([]byte, []byte) {
			return nil, page(rng)
		})},
		{"identical", random(func(rng *rand.Rand) ([]byte, []byte) {
			pre := page(rng)
			return pre, append([]byte(nil), pre...)
		})},
		{"bytes 0/1/2", random(func(rng *rand.Rand) ([]byte, []byte) {
			size := rng.Intn(pagestore.PageSize + 1)
			return alphabet(rng, size, 1+rng.Intn(3)), alphabet(rng, max(0, size+rng.Intn(33)-16), 1+rng.Intn(3))
		})},
		{"tiny pages", random(func(rng *rand.Rand) ([]byte, []byte) {
			return alphabet(rng, rng.Intn(18), 3), alphabet(rng, rng.Intn(18), 3)
		})},
		{"one equal stretch", stretchPairs},
	} {
		t.Run(row.name, func(t *testing.T) {
			for _, p := range row.pairs() {
				checkAgainstRef(t, p[0], p[1])
			}
		})
	}
}
