package netharness

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"catocs/internal/metrics"
)

func TestParseNodeMap(t *testing.T) {
	m, err := ParseNodeMap("0=127.0.0.1:7000, 2=127.0.0.1:7002,1=h:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 || m[0] != "127.0.0.1:7000" || m[1] != "h:1" || m[2] != "127.0.0.1:7002" {
		t.Fatalf("parsed %v", m)
	}
	ids := SortedIDs(m)
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Fatalf("sorted ids %v", ids)
	}
	if got := FormatNodeMap(m); got != "0=127.0.0.1:7000,1=h:1,2=127.0.0.1:7002" {
		t.Fatalf("formatted %q", got)
	}
	if _, err := ParseNodeMap("0=a,0=b"); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if _, err := ParseNodeMap("nope"); err == nil {
		t.Fatal("malformed entry accepted")
	}
	if m, err := ParseNodeMap("  "); err != nil || len(m) != 0 {
		t.Fatalf("blank input: %v %v", m, err)
	}
}

// TestHistEmpty: a worker that saw no echoes summarizes to zeros.
func TestHistEmpty(t *testing.T) {
	var r LoadResult
	if s := Summarize(&r.Hist); s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
}

// TestHistMerge: folding each worker's samples into one histogram, as
// cmd/loadgen does, summarizes exactly like one worker that saw them
// all.
func TestHistMerge(t *testing.T) {
	var a, b, all, merged metrics.Histogram
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * time.Microsecond
		if i%2 == 0 {
			a.ObserveDuration(d)
		} else {
			b.ObserveDuration(d)
		}
		all.ObserveDuration(d)
	}
	for _, w := range []*metrics.Histogram{&a, &b} {
		for _, v := range w.Samples() {
			merged.Observe(v)
		}
	}
	got, want := Summarize(&merged), Summarize(&all)
	// The sums add in a different order, so the means may differ in
	// the last bit; every quantile is a sample and must match exactly.
	if math.Abs(got.MeanMs-want.MeanMs) > 1e-9 {
		t.Fatalf("merged mean %v, direct %v", got.MeanMs, want.MeanMs)
	}
	got.MeanMs = want.MeanMs
	if got != want {
		t.Fatalf("merged %+v, direct %+v", got, want)
	}
	if want.Count != 1000 || want.P50Ms != 0.5 || want.P99Ms != 0.99 || want.MaxMs != 1 {
		t.Fatalf("summary %+v: want count 1000, p50 0.5 ms, p99 0.99 ms, max 1 ms", want)
	}
}

// TestSummaryJSONKeys pins the report's latency keys, which the E22
// harness parses back from loadgen's JSON line.
func TestSummaryJSONKeys(t *testing.T) {
	buf, err := json.Marshal(Summary{})
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"count", "max_ms", "mean_ms", "p50_ms", "p90_ms", "p999_ms", "p99_ms"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("summary keys %v, want %v", keys, want)
	}
}
