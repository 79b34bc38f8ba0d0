package txn

import (
	"fmt"
	"testing"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/pagestore"
)

// BenchmarkCommit is the commit path per transaction size: Begin, one Put
// to each of n table pages on the bound session (page lock, first-touch
// record, pin), then Commit (a redo record per page, the commit record,
// the group-commit force, version seal, unpin).
func BenchmarkCommit(b *testing.B) { benchFinish(b, (*Txn).Commit) }

// BenchmarkAbort is the same transaction rolled back: every page is
// restored to its first-touch image and the abort record appended.
func BenchmarkAbort(b *testing.B) { benchFinish(b, (*Txn).Abort) }

func benchFinish(b *testing.B, finish func(*Txn) error) {
	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("pages=%d", n), func(b *testing.B) {
			f := newFixtureWAL(b, 256, engine.NewDatabase(), wal.DefaultConfig())
			tag := policy.Tag{Object: f.info.ID, Content: policy.Table}
			// Two images per page, alternated between transactions: each
			// commit changes eight bytes of every page it touches. Frames
			// are immutable, so the slices are installed as they are.
			var imgs [2][][]byte
			for v := range imgs {
				for p := 0; p < n; p++ {
					img := make([]byte, pagestore.PageSize)
					for i := 100; i < 108; i++ {
						img[i] = byte(v + 1)
					}
					imgs[v] = append(imgs[v], img)
				}
			}
			for p := 0; p < n; p++ {
				if err := f.inst.Pool.Put(&f.sess.Clk, tag, int64(p), imgs[1][p]); err != nil {
					b.Fatal(err)
				}
			}
			if err := f.tm.Checkpoint(f.sess); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%256 == 255 {
					// Truncate the log, so its size stays bounded.
					b.StopTimer()
					if err := f.tm.Checkpoint(f.sess); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				tx, err := f.tm.Begin(f.sess)
				if err != nil {
					b.Fatal(err)
				}
				for p := 0; p < n; p++ {
					if err := f.inst.Pool.Put(&f.sess.Clk, tag, int64(p), imgs[i&1][p]); err != nil {
						b.Fatal(err)
					}
				}
				if err := finish(tx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
