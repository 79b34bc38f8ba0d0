# Developer entry points. CI runs the same commands; nothing here is
# load-bearing for the build (plain `go build ./...` works).

GO ?= go
# benchstat-friendly sample count: `make bench` twice (before/after a
# change) and feed the two files to golang.org/x/perf/cmd/benchstat.
BENCH_COUNT ?= 10
BENCH_OUT ?= bench.txt

.PHONY: test race bench lint size

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Layer microbenchmarks — the wall-clock path: the scheduler hot path
# (pick and grant across queue depths, the full opportunistic submit
# path, and the same path from 1, 2 and 4 CPUs), heap
# fetch/scan/update, B-tree lookup/seek/insert/delete, the executor's row path
# (scan-filter-aggregate, hash-join probe, nested loop, spill round
# trip) and its hash tables (BenchmarkHashJoinBuild: a join's build
# side of 1,000 rows; BenchmarkHashAggGroups: 1,000 aggregate groups), the log's page-change encoder alone per page shape (sparse
# edits, a shifted B-tree leaf, a heap append, an unchanged page, no
# pre-image; with the redo bytes) and with the record append around it
# (wal), a transaction's commit and abort over 1, 8 and 64 pages (txn),
# a dirty page's Put, eviction and write-back into the store, and a Get
# that hits, misses, or on a snapshot stream is served by the version
# chain, the frame or a read (bufferpool), the lock table's uncontended acquire and release of 1, 8
# and 64 pages, an upgrade, a handoff and a deadlock found at depth 2
# and 8 (lockmgr), the priority cache's read hit, read miss admitted into
# free space, eviction and write-buffer destage per request, driven from
# one goroutine as the golden replay is (hybrid), the LSM's page write
# through flushes and compactions and its
# memtable and tree reads (lsm), the stream clock's Advance, AdvanceTo
# and Now (simclock), one HDD and one SSD access and the busy-horizon
# read (device), one lineitem row decoded whole and for Q6's and Q1's
# column sets (catalog), and the construction of the 22 TPC-H plans
# (tpch).
# The scheduler set includes a superseding background write against
# 1k-100k queued requests. CI runs every one of them once
# (-benchtime 1x). -benchmem backs the allocs/op claims; repeated -count
# samples make the output benchstat-ready:
#
#   make bench BENCH_OUT=old.txt
#   ... edit ...
#   make bench BENCH_OUT=new.txt
#   benchstat old.txt new.txt
bench:
	{ $(GO) test ./internal/iosched ./internal/engine/heap ./internal/engine/btree ./internal/engine/exec ./internal/engine/wal \
		./internal/engine/txn ./internal/engine/bufferpool ./internal/engine/lockmgr ./internal/hybrid ./internal/lsm ./internal/simclock ./internal/device ./internal/engine/catalog -run '^$$' -bench . -skip SubmitParallel -benchmem -count $(BENCH_COUNT) && \
	  $(GO) test ./internal/tpch -run '^$$' -bench Plan -benchmem -count $(BENCH_COUNT) && \
	  $(GO) test ./internal/iosched \
		-run '^$$' -bench SubmitParallel -cpu 1,2,4 -benchmem -count $(BENCH_COUNT); } | tee $(BENCH_OUT)

# gofmt + vet, the fast pre-push check; the doc and clock-purity lints
# run inside `make test` (internal/doclint).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# The size ledger: non-test Go lines outside bench/ (tracked files only),
# per package directory and in total.
size:
	@git ls-files -- '*.go' ':!:*_test.go' ':!:bench/' | xargs wc -l | \
	  awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); if (d == $$2) d = "."; n[d] += $$1; t += $$1 } \
	  END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'
