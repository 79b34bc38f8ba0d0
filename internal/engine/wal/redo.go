package wal

import (
	"encoding/binary"
	"errors"
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

// runGap is the shortest stretch of equal bytes that ends a run: a
// shorter one costs less carried inside the run than a second run header.
const runGap = 4

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
	for i := nextDiff(pre, post, 0); i < len(post); {
		j := nextSame(pre, post, i)
		k := nextDiff(pre, post, j)
		for k < len(post) && k-j < runGap {
			j = nextSame(pre, post, k)
			k = nextDiff(pre, post, j)
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

// nextDiff returns the first offset at or after i where post differs from
// pre, len(post) if there is none.
func nextDiff(pre, post []byte, i int) int {
	n := min(len(pre), len(post))
	for ; i < n; i++ {
		if pre[i] != post[i] {
			return i
		}
	}
	return i
}

// nextSame returns the first offset at or after i where post equals pre,
// len(post) if there is none.
func nextSame(pre, post []byte, i int) int {
	for n := min(len(pre), len(post)); i < n; i++ {
		if pre[i] == post[i] {
			return i
		}
	}
	return len(post)
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
		var page []byte
		if !wholeImage(first.Image) {
			base, err := mgr.ReadPage(clk, tag, first.Page)
			if err != nil {
				return pages, err
			}
			page = append(make([]byte, 0, pagestore.PageSize), base...)
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
