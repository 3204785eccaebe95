package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRegistryIdentity: the same labels return the same instrument;
// different labels do not.
func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("cbcast", 0, "sent")
	b := r.Counter("cbcast", 0, "sent")
	if a != b {
		t.Fatal("same labels returned distinct counters")
	}
	if r.Counter("cbcast", 1, "sent") == a || r.Counter("scalecast", 0, "sent") == a {
		t.Fatal("distinct labels shared a counter")
	}
	if g := r.Gauge("cbcast", 0, "holdback"); g != r.Gauge("cbcast", 0, "holdback") {
		t.Fatal("same labels returned distinct gauges")
	}
	r.Observe("cbcast", 0, "latency", 1)
	r.Observe("cbcast", 0, "latency", 2)
	r.Observe("cbcast", 1, "latency", 3)
	if out := r.Render(); strings.Count(out, "histogram ") != 2 || !strings.Contains(out, `node=0 kind="latency"} = n=2 `) {
		t.Fatalf("same labels must share one histogram, distinct labels not:\n%s", out)
	}
}

// TestRegistryObserveAggregates: a histogram fed through Observe keeps
// every sample, so count, sum, mean and max are exact in both exporters.
func TestRegistryObserveAggregates(t *testing.T) {
	r := NewRegistry()
	for i := 1; i <= 5; i++ {
		r.Observe("cbcast", 0, "latency", float64(i))
	}
	if out := r.Render(); !strings.Contains(out, "n=5 mean=3 p50=3 ") || !strings.Contains(out, " max=5\n") {
		t.Fatalf("histogram aggregates wrong:\n%s", out)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`catocs_latency_sum{substrate="cbcast",node="0"} 15`,
		`catocs_latency_count{substrate="cbcast",node="0"} 5`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

// TestRegistryCounterTotal: the aggregate sums one kind across nodes
// of one substrate only; a nil registry totals zero.
func TestRegistryCounterTotal(t *testing.T) {
	r := NewRegistry()
	r.Counter("cbcast", 0, "sent").Add(3)
	r.Counter("cbcast", 1, "sent").Add(4)
	r.Counter("cbcast", 0, "dropped").Add(100)
	r.Counter("scalecast", 0, "sent").Add(100)
	if got := r.CounterTotal("cbcast", "sent"); got != 7 {
		t.Errorf("CounterTotal = %d, want 7", got)
	}
	var nilReg *Registry
	if got := nilReg.CounterTotal("cbcast", "sent"); got != 0 {
		t.Errorf("nil CounterTotal = %d, want 0", got)
	}
	if nilReg.Render() != "" {
		t.Error("nil Render non-empty")
	}
}

// TestRegistryRender: deterministic, sorted, includes all three
// instrument classes.
func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("b", 1, "x").Inc()
	r.Counter("a", 0, "x").Inc()
	r.Gauge("a", 0, "q").Set(-5)
	r.Observe("a", 0, "lat", 0.25)
	out := r.Render()
	if out != r.Render() {
		t.Fatal("Render nondeterministic")
	}
	ai := strings.Index(out, `substrate="a"`)
	bi := strings.Index(out, `substrate="b"`)
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("Render order wrong:\n%s", out)
	}
	for _, want := range []string{"counter", "gauge", "histogram", "max -5"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryConcurrent hammers one shared registry from concurrent
// senders — tcpnet's dispatcher and connection goroutines writing while
// the live plane reads. Run under -race (make race / make verify) this
// is the registry's data-race gate.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 8
		iters   = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Half the workers hit a shared instrument, half their own,
				// and everyone races instrument creation and reads.
				r.Counter("live", 0, "sent").Inc()
				r.Counter("live", w, "sent").Inc()
				r.Gauge("live", w%2, "inflight").Add(1)
				r.Observe("live", w%2, "latency", float64(i))
				if i%64 == 0 {
					_ = r.CounterTotal("live", "sent")
					_ = r.Render() // sorts histogram samples under the lock
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("live", 0, "sent").Value(); got < workers*iters {
		t.Errorf("shared counter = %d, want >= %d", got, workers*iters)
	}
	if got := r.CounterTotal("live", "sent"); got != 2*workers*iters {
		t.Errorf("CounterTotal = %d, want %d", got, 2*workers*iters)
	}
	want := fmt.Sprintf("n=%d ", workers/2*iters)
	if out := r.Render(); strings.Count(out, want) != 2 {
		t.Errorf("each latency histogram should hold %s samples:\n%s", want, out)
	}
}
