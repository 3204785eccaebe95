package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition for the Registry, served at /metrics by
// internal/obs/live. The mapping:
//
//   - counters  → catocs_<kind>_total{substrate,node}     (counter)
//   - gauges    → catocs_<kind>{substrate,node}           (gauge)
//                 plus catocs_<kind>_max for the high-water mark
//   - histograms → summary: catocs_<kind>{...,quantile="0.5|0.9|0.99"}
//                 plus catocs_<kind>_sum and catocs_<kind>_count
//
// Registry.Observe feeds a metrics.Histogram, which keeps every raw
// sample, so quantiles are exact: the registry exports them as a
// Prometheus *summary* rather than re-bucketing into a native
// histogram.

var summaryQuantiles = []float64{0.5, 0.9, 0.99}

// promName builds a legal metric name from a registry kind:
// "catocs_" prefix, [a-z0-9_] body, everything else mapped to '_'.
func promName(kind, suffix string) string {
	var b strings.Builder
	b.WriteString("catocs_")
	for _, r := range strings.ToLower(kind) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	b.WriteString(suffix)
	return b.String()
}

// promLabels renders the shared label pairs for one instrument,
// without surrounding braces so callers can append a quantile label.
func promLabels(l Labels) string {
	return fmt.Sprintf("substrate=%s,node=%q",
		strconv.Quote(l.Substrate), strconv.Itoa(l.Node))
}

// promFloat renders a sample value; Prometheus accepts Go's shortest
// float formatting.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every instrument in Prometheus text
// exposition format (version 0.0.4), grouped by metric name with one
// # TYPE comment per family, families and series in deterministic
// order. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	// Group series by family so each # TYPE line precedes all its
	// series, as the format requires.
	type series struct {
		labels Labels
		lines  []string
	}
	families := map[string]*struct {
		typ    string
		series []series
	}{}
	add := func(name, typ string, l Labels, lines ...string) {
		f, ok := families[name]
		if !ok {
			f = &struct {
				typ    string
				series []series
			}{typ: typ}
			families[name] = f
		}
		f.series = append(f.series, series{labels: l, lines: lines})
	}

	for _, l := range sortedLabels(r.counters) {
		name := promName(l.Kind, "_total")
		add(name, "counter", l,
			fmt.Sprintf("%s{%s} %d", name, promLabels(l), r.counters[l].Value()))
	}
	for _, l := range sortedLabels(r.gauges) {
		g := r.gauges[l]
		name := promName(l.Kind, "")
		add(name, "gauge", l,
			fmt.Sprintf("%s{%s} %d", name, promLabels(l), g.Value()))
		maxName := promName(l.Kind, "_max")
		add(maxName, "gauge", l,
			fmt.Sprintf("%s{%s} %d", maxName, promLabels(l), g.Max()))
	}
	for _, l := range sortedLabels(r.hists) {
		h := r.hists[l]
		name := promName(l.Kind, "")
		lines := make([]string, 0, len(summaryQuantiles)+2)
		for _, q := range summaryQuantiles {
			lines = append(lines, fmt.Sprintf("%s{%s,quantile=%q} %s",
				name, promLabels(l), promFloat(q), promFloat(h.Quantile(q))))
		}
		lines = append(lines,
			fmt.Sprintf("%s_sum{%s} %s", name, promLabels(l), promFloat(h.Sum())),
			fmt.Sprintf("%s_count{%s} %d", name, promLabels(l), h.Count()))
		add(name, "summary", l, lines...)
	}

	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := families[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			for _, line := range s.lines {
				if _, err := fmt.Fprintln(w, line); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
