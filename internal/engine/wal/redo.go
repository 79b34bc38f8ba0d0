package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"sort"

	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/storagemgr"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

// A page record's payload is its redo: the length of the page's
// post-image, then the runs of the post-image that differ from the
// first-touch pre-image at the same offset, each as a gap from the end of
// the previous run, a length and the bytes (varints but the bytes).
// Every offset past the end of the pre-image differs. Runs overwrite and
// never shift bytes, which is what makes replay idempotent (see the
// package comment). A nil pre-image, or runs that would take no less room
// than the image, give one run covering the whole image.
//
// The encoder finds its runs a word at a time; the bytes it writes are
// those of a byte-at-a-time scan (redo_ref_test.go keeps one as the
// reference). A run starts at the first differing byte and ends at the
// start of the first stretch of at least runGap equal bytes, else of an
// equal stretch that reaches the end of the post-image, else at the end
// of the post-image. nextDiff compares a few words, then skips equal
// blocks with bytes.Equal, and locates the differing byte in the first
// unequal word; runEnd tests the starts of a word at once on the zero
// bytes of pre^post. A run whose gap and length are both below 0x80
// writes each as the single byte that is its varint.

// runGap is the shortest stretch of equal bytes that ends a run: a
// shorter one costs less carried inside the run than a second run header.
const runGap = 4

// leadWords is how many words nextDiff compares one at a time before it
// skips by blocks.
const leadWords = 4

// equalBlock is the stride at which nextDiff skips equal bytes.
const equalBlock = 256

var errBadRedo = errors.New("wal: malformed page redo")

// appendRedo appends the redo of a page whose image goes from pre to post.
func appendRedo(dst, pre, post []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(post)))
	if pre != nil {
		if d, ok := appendRuns(dst, pre, post); ok {
			return d
		}
	}
	dst = binary.AppendUvarint(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(len(post)))
	return append(dst, post...)
}

// appendRuns appends the runs of post that differ from pre, or reports
// false once they would take as much room as post itself.
func appendRuns(dst, pre, post []byte) ([]byte, bool) {
	limit := len(dst) + len(post)
	end := 0
	for i := nextDiff(pre, post, 0); i < len(post); i = nextDiff(pre, post, end) {
		j := runEnd(pre, post, i)
		if len(dst)+j-i >= limit {
			return dst, false
		}
		if gap, n := i-end, j-i; gap < 0x80 && n < 0x80 {
			dst = append(dst, byte(gap), byte(n))
		} else {
			dst = binary.AppendUvarint(dst, uint64(gap))
			dst = binary.AppendUvarint(dst, uint64(n))
		}
		dst = append(dst, post[i:j]...)
		end = j
	}
	return dst, len(dst) < limit
}

// word loads the 8 bytes of b at i, little-endian, so byte i+k of b is
// byte k of the word.
func word(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i:]) }

// nextDiff returns the first offset at or after i where post differs from
// pre: min(len(pre), len(post)) if there is none, so every offset past
// the shorter image differs.
func nextDiff(pre, post []byte, i int) int {
	n := min(len(pre), len(post))
	// A few words first: most equal stretches between runs are short.
	for stop := min(n, i+leadWords*8); i+8 <= stop; i += 8 {
		if x := word(pre, i) ^ word(post, i); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i+equalBlock <= n && bytes.Equal(pre[i:i+equalBlock], post[i:i+equalBlock]) {
		i += equalBlock
	}
	for ; i+8 <= n; i += 8 {
		if x := word(pre, i) ^ word(post, i); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for ; i < n; i++ {
		if pre[i] != post[i] {
			return i
		}
	}
	return i
}

// runEnd returns the end of the run that starts at the differing offset
// i: the start of the first stretch of at least runGap equal bytes after
// i, else the start of the equal stretch that reaches len(post) (there is
// one only when pre is at least as long as post), else len(post).
func runEnd(pre, post []byte, i int) int {
	n := min(len(pre), len(post))
	p := i + 1
	if p+16 <= n {
		// z0 flags the equal bytes at p..p+7, z1 those at p+8..p+15; a
		// start at p+k qualifies when the runGap flags from byte k on
		// are all set.
		z0 := equalBytes(word(pre, p) ^ word(post, p))
		for ; p+16 <= n; p += 8 {
			z1 := equalBytes(word(pre, p+8) ^ word(post, p+8))
			f := z0
			for s := 8; s < 8*runGap; s += 8 {
				f &= z0>>s | z1<<(64-s)
			}
			if f != 0 {
				return p + bits.TrailingZeros64(f)/8
			}
			z0 = z1
		}
	}
	// No start before p qualified. If the word loop ran, at least 8 bytes
	// are left, so an equal stretch reaching n starts at or after p and
	// equal counts all of it.
	equal := 0
	for ; p < n; p++ {
		if pre[p] != post[p] {
			equal = 0
		} else if equal++; equal == runGap {
			return p + 1 - runGap
		}
	}
	if n == len(post) {
		return n - equal
	}
	return len(post)
}

// equalBytes sets the high bit of each byte of the result whose byte in
// x is zero, and clears every other bit (exact: no carry crosses a byte).
func equalBytes(x uint64) uint64 {
	const low7 = 0x7F7F7F7F7F7F7F7F
	return ^((x&low7 + low7) | x | low7)
}

// applyRedo replays one redo onto page, any committed version of the page
// since the checkpoint, and returns the result (page's array is reused
// when it is large enough).
func applyRedo(page, redo []byte) ([]byte, error) {
	size, n := binary.Uvarint(redo)
	if n <= 0 || size > pagestore.PageSize {
		return nil, errBadRedo
	}
	redo = redo[n:]
	if int(size) <= cap(page) {
		page = page[:size]
	} else {
		page = append(page, make([]byte, int(size)-len(page))...)
	}
	off := 0
	for len(redo) > 0 {
		gap, n1 := binary.Uvarint(redo)
		if n1 <= 0 {
			return nil, errBadRedo
		}
		l, n2 := binary.Uvarint(redo[n1:])
		if n2 <= 0 {
			return nil, errBadRedo
		}
		redo = redo[n1+n2:]
		off += int(gap)
		if gap > size || l > uint64(len(redo)) || off+int(l) > len(page) {
			return nil, errBadRedo
		}
		copy(page[off:], redo[:l])
		off += int(l)
		redo = redo[l:]
	}
	return page, nil
}

// wholeImage reports whether a redo is one run covering the whole image,
// so replaying it needs no base page.
func wholeImage(redo []byte) bool {
	size, n := binary.Uvarint(redo)
	if n <= 0 {
		return false
	}
	gap, n1 := binary.Uvarint(redo[n:])
	if n1 <= 0 {
		return false
	}
	l, n2 := binary.Uvarint(redo[n+n1:])
	return n2 > 0 && gap == 0 && l == size
}

// redo applies committed page records, in any order, to the store: every
// page is read at most once, in (object, page) order — not at all when
// its first record is a whole image — brought forward in memory by its
// records in LSN order, and written once. Base reads classify as random
// reads, writes as updates (Rule 4): a table page and an index page get
// the same classes. It sorts recs in place and returns the number of
// pages written.
func redo(clk *simclock.Clock, mgr *storagemgr.Manager, recs []Record) (int, error) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		if a.Page != b.Page {
			return a.Page < b.Page
		}
		return a.LSN < b.LSN
	})
	pages := 0
	for i := 0; i < len(recs); {
		first := recs[i]
		tag := policy.Tag{Object: first.Obj, Content: policy.Table, Pattern: policy.Random}
		page := pagestore.NewPage(0)
		if !wholeImage(first.Image) {
			base, err := mgr.ReadPage(clk, tag, first.Page)
			if err != nil {
				return pages, err
			}
			page = append(page, base...)
		}
		for ; i < len(recs) && recs[i].Obj == first.Obj && recs[i].Page == first.Page; i++ {
			var err error
			if page, err = applyRedo(page, recs[i].Image); err != nil {
				return pages, err
			}
		}
		tag.Update = true
		if err := mgr.WritePage(clk, tag, first.Page, page); err != nil {
			return pages, err
		}
		pages++
	}
	return pages, nil
}
