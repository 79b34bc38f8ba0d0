// Quickstart: build a small database through the public API, run one
// query under two storage configurations, and look at how hStorage-DB
// classified the I/O.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strconv"

	"hstoragedb"
)

func main() {
	// 1. Create a database with a custom table and load a million-ish
	//    cells of synthetic data.
	db := hstoragedb.NewDatabase()
	info, err := db.CreateTable("events", hstoragedb.NewSchema(
		hstoragedb.Column{Name: "id", Type: hstoragedb.Int64Col},
		hstoragedb.Column{Name: "user", Type: hstoragedb.Int64Col},
		hstoragedb.Column{Name: "amount", Type: hstoragedb.Float64Col},
	))
	if err != nil {
		log.Fatal(err)
	}

	inst, err := db.NewInstance(hstoragedb.InstanceConfig{
		Storage: hstoragedb.StorageConfig{
			Mode:        hstoragedb.HStorage,
			CacheBlocks: 2048,
		},
		BufferPoolPages: 64,
	})
	if err != nil {
		log.Fatal(err)
	}

	loader, err := inst.NewLoader("events")
	if err != nil {
		log.Fatal(err)
	}
	for i := int64(0); i < 50_000; i++ {
		_, err := loader.Add(hstoragedb.Tuple{
			hstoragedb.Int(i),
			hstoragedb.Int(i % 997),
			hstoragedb.Float(float64(i%100) / 3),
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := loader.Close(); err != nil {
		log.Fatal(err)
	}
	if _, err := inst.BuildIndex("events_id", "events", "id"); err != nil {
		log.Fatal(err)
	}
	inst.ResetStats()

	// 2. Build a plan: an index-driven point lookup joined against a
	//    sequential aggregation. The engine tags every page request with
	//    its semantic information, the storage manager maps it to a QoS
	//    policy (Rules 1-5), and the hybrid storage system places blocks
	//    accordingly.
	handle := hstoragedb.NewTableHandle(info)
	plan := &hstoragedb.HashAgg{
		Child: &hstoragedb.IndexScan{
			Index: db.Cat.MustIndex("events_id"),
			Table: handle,
			Lo:    10_000, Hi: 20_000,
		},
		GroupKey: func(key []byte, t hstoragedb.Tuple) []byte { return strconv.AppendInt(key, t[1].I%10, 10) },
		NewGroup: func(t hstoragedb.Tuple) hstoragedb.Tuple {
			return hstoragedb.Tuple{hstoragedb.Int(t[1].I % 10), hstoragedb.Float(t[2].F)}
		},
		Merge: func(acc, t hstoragedb.Tuple) hstoragedb.Tuple {
			acc[1].F += t[2].F
			return acc
		},
	}

	sess := inst.NewSession()
	res, err := sess.Execute(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aggregated %d groups in %v of simulated time\n", len(res.Rows), res.Elapsed)
	fmt.Printf("request classification: %s\n", inst.Mgr.FormatTypeStats())
	fmt.Printf("\nstorage behaviour under %v:\n%s", inst.Sys.Mode(), inst.Sys.Stats())

	// 3. Rerun the same plan: the random-priority blocks cached by the
	//    first run now hit in the SSD.
	res2, err := inst.NewSession().Execute(&hstoragedb.SeqScan{Table: handle})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull sequential scan of the table: %v (Rule 1: bypasses the cache)\n", res2.Elapsed)
	fmt.Printf("cache still holds %d blocks\n", inst.Sys.Stats().CachedBlocks)

	// Where to go next: `go run ./cmd/hbench -exp oltp` runs the
	// transactional OLTP extension (WAL + group commit + crash
	// recovery, log writes pinned under ClassLog), and `go run
	// ./cmd/hbench -exp iosched` measures the QoS-aware device I/O
	// scheduler under contention: per-class latency percentiles and
	// throughput, scheduler vs FIFO, across all four storage modes.
	fmt.Println("\nnext: go run ./cmd/hbench -exp oltp   (transactions, WAL, crash recovery)")
	fmt.Println("      go run ./cmd/hbench -exp iosched (QoS device scheduler under contention)")
}
