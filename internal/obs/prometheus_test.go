package obs

import (
	"math"
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("cbcast", 0, "sent").Add(3)
	r.Counter("cbcast", 1, "sent").Add(5)
	r.Gauge("cbcast", 0, "holdback depth").Set(7)
	r.Observe("cbcast", 0, "deliver_latency", 1)
	r.Observe("cbcast", 0, "deliver_latency", 3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE catocs_sent_total counter",
		`catocs_sent_total{substrate="cbcast",node="0"} 3`,
		`catocs_sent_total{substrate="cbcast",node="1"} 5`,
		"# TYPE catocs_holdback_depth gauge",
		`catocs_holdback_depth{substrate="cbcast",node="0"} 7`,
		"# TYPE catocs_holdback_depth_max gauge",
		"# TYPE catocs_deliver_latency summary",
		`catocs_deliver_latency{substrate="cbcast",node="0",quantile="0.5"} 1`,
		`catocs_deliver_latency{substrate="cbcast",node="0",quantile="0.99"} 3`,
		`catocs_deliver_latency_sum{substrate="cbcast",node="0"} 4`,
		`catocs_deliver_latency_count{substrate="cbcast",node="0"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Every # TYPE line must precede its series, and names must be
	// sanitized to [a-z0-9_].
	seenType := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			seenType[strings.Fields(rest)[0]] = true
			continue
		}
		name := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
		}
		// Summary _sum/_count series live under the base family's TYPE.
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !seenType[name] && !seenType[base] {
			t.Fatalf("series %q has no preceding # TYPE line", name)
		}
		for _, c := range name {
			if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_') {
				t.Fatalf("metric name %q contains illegal rune %q", name, c)
			}
		}
	}

	var nilReg *Registry
	var nb strings.Builder
	if err := nilReg.WritePrometheus(&nb); err != nil || nb.Len() != 0 {
		t.Fatalf("nil registry wrote %q err=%v", nb.String(), err)
	}
}

func TestWritePrometheusEmptyHistogramNoNaN(t *testing.T) {
	r := NewRegistry()
	r.Observe("abcast", 2, "latency", math.NaN()) // created, sample dropped
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "NaN") {
		t.Fatalf("empty histogram rendered NaN:\n%s", b.String())
	}
	if !strings.Contains(b.String(), `catocs_latency_count{substrate="abcast",node="2"} 0`) {
		t.Fatalf("empty histogram missing zero count:\n%s", b.String())
	}
}

type fakeIntrospector struct{ st Status }

func (f fakeIntrospector) ObsStatus() Status { return f.st }

func TestCollectMirrorRenderStatus(t *testing.T) {
	a := fakeIntrospector{Status{
		Component: "multicast", Node: 0,
		Fields: []StatusField{
			DistNum("holdback_depth", 4),
			Num("epoch", 2),
			Str("policy", "block"),
		},
	}}
	b := fakeIntrospector{Status{
		Component: "stability", Substrate: "preset", Node: 1,
		Fields: []StatusField{Num("occupancy", 9)},
	}}
	sts := CollectStatus("cbcast", a, nil, b)
	if len(sts) != 2 {
		t.Fatalf("collected %d statuses, want 2 (nil skipped)", len(sts))
	}
	if sts[0].Substrate != "cbcast" {
		t.Fatalf("substrate not stamped: %q", sts[0].Substrate)
	}
	if sts[1].Substrate != "preset" {
		t.Fatalf("preset substrate overwritten: %q", sts[1].Substrate)
	}

	reg := NewRegistry()
	MirrorStatus(reg, sts)
	if v := reg.Gauge("cbcast", 0, "multicast_holdback_depth").Value(); v != 4 {
		t.Fatalf("mirrored gauge = %d, want 4", v)
	}
	dump := reg.Render()
	if !strings.Contains(dump, `kind="multicast_holdback_depth_dist"} = n=1 `) {
		t.Fatalf("Dist field histogram missing or count != 1:\n%s", dump)
	}
	if strings.Contains(dump, "multicast_epoch_dist") {
		t.Fatal("non-Dist field grew a histogram")
	}
	MirrorStatus(nil, sts) // must not panic

	out := RenderStatus(sts)
	for _, want := range []string{"multicast", "holdback_depth=4", "policy=block", "occupancy=9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("statusz render missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(RenderStatus(nil), "no status publishers") {
		t.Fatal("empty statusz render")
	}
}
