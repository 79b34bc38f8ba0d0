package simclock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock reads %v", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(5 * time.Millisecond)
	c.Advance(3 * time.Millisecond)
	if got := c.Now(); got != 8*time.Millisecond {
		t.Fatalf("Now() = %v, want 8ms", got)
	}
}

func TestClockAdvanceNegativeIgnored(t *testing.T) {
	var c Clock
	c.Advance(time.Second)
	c.Advance(-time.Hour)
	if got := c.Now(); got != time.Second {
		t.Fatalf("negative advance changed clock to %v", got)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.Advance(10 * time.Millisecond)
	if got := c.AdvanceTo(5 * time.Millisecond); got != 10*time.Millisecond {
		t.Fatalf("AdvanceTo backwards moved clock to %v", got)
	}
	if got := c.AdvanceTo(20 * time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("AdvanceTo forward gave %v", got)
	}
}

func TestClockReset(t *testing.T) {
	var c Clock
	c.Advance(time.Minute)
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("reset clock reads %v", c.Now())
	}
}

func TestResourceSerializes(t *testing.T) {
	var r Resource
	// Two requests arriving at t=0 with 10ms service each: the second
	// completes at 20ms.
	d1 := r.Serve(0, 10*time.Millisecond)
	d2 := r.Serve(0, 10*time.Millisecond)
	if d1 != 10*time.Millisecond || d2 != 20*time.Millisecond {
		t.Fatalf("completions %v, %v; want 10ms, 20ms", d1, d2)
	}
}

func TestResourceIdleGap(t *testing.T) {
	var r Resource
	r.Serve(0, 10*time.Millisecond)
	// Arrival after the resource went idle starts immediately.
	d := r.Serve(time.Second, 5*time.Millisecond)
	if d != time.Second+5*time.Millisecond {
		t.Fatalf("completion %v, want 1.005s", d)
	}
}

func TestResourceNegativeServiceClamped(t *testing.T) {
	var r Resource
	if d := r.Serve(time.Millisecond, -time.Second); d != time.Millisecond {
		t.Fatalf("negative service gave %v", d)
	}
}

func TestResourceCounters(t *testing.T) {
	var r Resource
	r.Serve(0, 2*time.Millisecond)
	r.Serve(0, 3*time.Millisecond)
	if r.Served() != 2 {
		t.Fatalf("served = %d", r.Served())
	}
	if r.BusyTime() != 5*time.Millisecond {
		t.Fatalf("busy = %v", r.BusyTime())
	}
	if r.BusyUntil() != 5*time.Millisecond {
		t.Fatalf("busyUntil = %v", r.BusyUntil())
	}
	r.Reset()
	if r.Served() != 0 || r.BusyTime() != 0 || r.BusyUntil() != 0 {
		t.Fatalf("reset left %v", r.String())
	}
}

// Property: completions never precede arrival + service, and busy time
// equals the sum of services.
func TestResourceProperties(t *testing.T) {
	f := func(arrivals []uint16, services []uint16) bool {
		var r Resource
		n := len(arrivals)
		if len(services) < n {
			n = len(services)
		}
		var total time.Duration
		for i := 0; i < n; i++ {
			at := time.Duration(arrivals[i]) * time.Microsecond
			svc := time.Duration(services[i]) * time.Microsecond
			done := r.Serve(at, svc)
			if done < at+svc {
				return false
			}
			total += svc
		}
		return r.BusyTime() == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Concurrent use must not race or lose work.
func TestResourceConcurrent(t *testing.T) {
	var r Resource
	var wg sync.WaitGroup
	const workers = 8
	const each = 100
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				r.Serve(0, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if r.Served() != workers*each {
		t.Fatalf("served %d, want %d", r.Served(), workers*each)
	}
	if r.BusyTime() != workers*each*time.Microsecond {
		t.Fatalf("busy %v", r.BusyTime())
	}
}

func TestClockConcurrent(t *testing.T) {
	var c Clock
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if c.Now() != 8000*time.Nanosecond {
		t.Fatalf("lost advances: %v", c.Now())
	}
}

// countingPop records Park/Unpark calls the way a closed population
// counts blocked members.
type countingPop struct {
	mu            sync.Mutex
	parked, parks int
	onPark        func()
}

func (p *countingPop) Park() {
	p.mu.Lock()
	p.parked++
	p.parks++
	f := p.onPark
	p.mu.Unlock()
	if f != nil {
		f()
	}
}

func (p *countingPop) Unpark() {
	p.mu.Lock()
	p.parked--
	p.mu.Unlock()
}

func (p *countingPop) counts() (parked, parks int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.parked, p.parks
}

// A stream in no population parks for free; a member's Park and Unpark
// reach its population, until it leaves.
func TestParkReachesThePopulation(t *testing.T) {
	var c Clock
	c.Park() // no population: nothing to tell
	c.Unpark()
	pop := &countingPop{}
	c.SetPopulation(pop)
	c.Park()
	if parked, _ := pop.counts(); parked != 1 {
		t.Fatalf("parked = %d after Park, want 1", parked)
	}
	c.Unpark()
	c.SetPopulation(nil)
	c.Park()
	if parked, parks := pop.counts(); parked != 0 || parks != 1 {
		t.Fatalf("parked = %d, parks = %d after leaving; want 0, 1", parked, parks)
	}
}

// A Mutex parks the stream exactly when the lock is contended, for
// exactly as long as it waits.
func TestMutexParksOnlyWhenContended(t *testing.T) {
	var c Clock
	mu := NewMutex()
	waiting := make(chan struct{})
	pop := &countingPop{onPark: func() { close(waiting) }}
	c.SetPopulation(pop)

	mu.Lock(&c)
	if _, parks := pop.counts(); parks != 0 {
		t.Fatalf("uncontended Lock parked %d times", parks)
	}
	// Still held: the second Lock has to wait, parked.
	got := make(chan struct{})
	go func() {
		mu.Lock(&c)
		close(got)
	}()
	<-waiting
	if parked, _ := pop.counts(); parked != 1 {
		t.Fatalf("parked = %d while waiting for the lock, want 1", parked)
	}
	mu.Unlock()
	<-got
	if parked, parks := pop.counts(); parked != 0 || parks != 1 {
		t.Fatalf("parked = %d, parks = %d once the lock was taken; want 0, 1", parked, parks)
	}
	mu.Unlock()
	mu.Lock(nil) // no stream: a plain wait
	mu.Unlock()
}
