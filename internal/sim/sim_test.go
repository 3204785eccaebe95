package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestOrderingByTime(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.At(30*time.Millisecond, func() { got = append(got, 3) })
	k.At(10*time.Millisecond, func() { got = append(got, 1) })
	k.At(20*time.Millisecond, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order = %v", got)
	}
	if k.Now() != 30*time.Millisecond {
		t.Fatalf("final time = %v", k.Now())
	}
}

func TestFIFOTiebreak(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Millisecond, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	k := NewKernel(1)
	var fireTime time.Duration
	k.At(5*time.Millisecond, func() {
		k.After(7*time.Millisecond, func() { fireTime = k.Now() })
	})
	k.Run()
	if fireTime != 12*time.Millisecond {
		t.Fatalf("After fired at %v, want 12ms", fireTime)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		k.At(5*time.Millisecond, func() {})
	})
	k.Run()
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.At(10*time.Millisecond, func() { fired++ })
	k.At(20*time.Millisecond, func() { fired++ })
	k.RunUntil(15 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != 15*time.Millisecond {
		t.Fatalf("now = %v, want 15ms", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	k.Run()
	if fired != 2 {
		t.Fatalf("after Run fired = %d, want 2", fired)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		k := NewKernel(42)
		var trace []time.Duration
		var tick func()
		n := 0
		tick = func() {
			trace = append(trace, k.Now())
			n++
			if n < 50 {
				k.After(time.Duration(k.Rand().Intn(1000))*time.Microsecond, tick)
			}
		}
		k.At(0, tick)
		k.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEventLimit(t *testing.T) {
	k := NewKernel(1)
	k.SetEventLimit(10)
	var loop func()
	loop = func() { k.After(time.Millisecond, loop) }
	k.At(0, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("expected event-limit panic")
		}
	}()
	k.Run()
}

func TestFiredCount(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 5; i++ {
		k.At(time.Duration(i)*time.Millisecond, func() {})
	}
	k.Run()
	if k.Fired() != 5 {
		t.Fatalf("fired = %d, want 5", k.Fired())
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.After(-time.Second, func() { ran = true })
	k.Run()
	if !ran {
		t.Fatal("negative After should clamp to now and run")
	}
}

// TestOrderIsTimeThenSchedulingOrder schedules a seeded random mix of
// At, AtCall, After(0) and After(d) on a 1 ms grid, so instants
// collide often, and lets handlers schedule more, at now and in the
// future. The firing sequence must be a stable sort of the scheduled
// events by time: by (at, scheduling order).
func TestOrderIsTimeThenSchedulingOrder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		k := NewKernel(seed)
		r := rand.New(rand.NewSource(seed))
		var ats []time.Duration // by scheduling order
		var fired []int
		var schedule func()
		onFire := func(arg any) {
			id := arg.(int)
			if k.Now() != ats[id] {
				t.Fatalf("seed %d: event %d fired at %v, scheduled for %v", seed, id, k.Now(), ats[id])
			}
			fired = append(fired, id)
			for n := r.Intn(3); n > 0 && len(ats) < 3000; n-- {
				schedule()
			}
		}
		schedule = func() {
			id := len(ats)
			d := time.Duration(r.Intn(4)) * time.Millisecond
			at := k.Now() + d
			switch r.Intn(4) {
			case 0:
				k.At(at, func() { onFire(id) })
			case 1:
				k.AtCall(at, onFire, id)
			case 2:
				at = k.Now()
				k.After(0, func() { onFire(id) })
			default:
				k.After(d, func() { onFire(id) })
			}
			ats = append(ats, at)
		}
		for i := 0; i < 200; i++ {
			schedule()
		}
		k.Run()
		want := make([]int, len(ats))
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(a, b int) int { return int(ats[a] - ats[b]) })
		if !slices.Equal(fired, want) {
			t.Fatalf("seed %d: fired %d events out of (at, scheduling order); first difference at %d",
				seed, len(fired), firstDiff(fired, want))
		}
	}
}

func firstDiff(a, b []int) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestSchedulingAllocatesNothing pins the kernel's allocation contract:
// once its heap has grown, scheduling with At and AtCall and firing
// the events allocates nothing per event.
func TestSchedulingAllocatesNothing(t *testing.T) {
	k := NewKernel(1)
	thunk := func() {}
	call := func(any) {}
	arg := any(&struct{ n int }{})
	for i := 0; i < 64; i++ {
		k.At(time.Duration(k.Rand().Intn(1000))*time.Microsecond, thunk)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.At(k.Now()+time.Duration(k.Rand().Intn(1000))*time.Microsecond, thunk)
		k.AtCall(k.Now()+time.Duration(k.Rand().Intn(1000))*time.Microsecond, call, arg)
		k.Step()
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state At+AtCall+2×Step allocated %v per run, want 0", allocs)
	}
}
