// Package netharness holds the shared machinery of the real-network
// harness: the load payload codec, fleet topology parsing shared by
// cmd/node and cmd/loadgen, the loadgen worker core that drives
// simulated clients through the bus, and the latency summary its JSON
// report carries.
package netharness

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"catocs/internal/metrics"
	"catocs/internal/transport"
)

// ParseNodeMap parses the "id=host:port,id=host:port" topology flags
// cmd/node, cmd/loadgen and the E22 harness share.
func ParseNodeMap(s string) (map[transport.NodeID]string, error) {
	out := make(map[transport.NodeID]string)
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("netharness: entry %q is not id=addr", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(id))
		if err != nil {
			return nil, fmt.Errorf("netharness: node id %q: %v", id, err)
		}
		nid := transport.NodeID(n)
		if _, dup := out[nid]; dup {
			return nil, fmt.Errorf("netharness: duplicate node id %d", n)
		}
		out[nid] = strings.TrimSpace(addr)
	}
	return out, nil
}

// FormatNodeMap renders a topology map back into flag form, ids
// ascending.
func FormatNodeMap(m map[transport.NodeID]string) string {
	ids := SortedIDs(m)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d=%s", int(id), m[id])
	}
	return strings.Join(parts, ",")
}

// SortedIDs returns a topology map's node ids in ascending order — the
// rank order every process must agree on for a multicast group.
func SortedIDs(m map[transport.NodeID]string) []transport.NodeID {
	ids := make([]transport.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Merge returns the union of topology maps (later maps win on
// conflicts); cmd/node needs fleet and worker addresses in one
// transport universe.
func Merge(ms ...map[transport.NodeID]string) map[transport.NodeID]string {
	out := make(map[transport.NodeID]string)
	for _, m := range ms {
		for id, addr := range m {
			out[id] = addr
		}
	}
	return out
}

// LoadReport is the loadgen's JSON result line: flat real-network
// metrics, read back by the fleet launcher (E22).
type LoadReport struct {
	Substrate  string  `json:"substrate"`
	Nodes      int     `json:"nodes"`
	Workers    int     `json:"workers"`
	Clients    int     `json:"clients"`
	TargetRate float64 `json:"target_rate"`
	DurationS  float64 `json:"duration_s"`

	Sent uint64 `json:"sent"`
	Done uint64 `json:"done"`
	// Lost is sent minus done at harvest time: shed by backpressure,
	// still in flight, or dropped by a fault.
	Lost       uint64  `json:"lost"`
	MsgsPerSec float64 `json:"msgs_per_sec"`

	Latency Summary `json:"latency"`

	// BytesPerMsg is the loadgen-side wire bytes (both directions,
	// frame headers included) per completed message: the real metadata
	// overhead number the paper's Figure-style tables estimate.
	BytesPerMsg  float64 `json:"bytes_per_msg"`
	WireBytesIn  uint64  `json:"wire_bytes_in"`
	WireBytesOut uint64  `json:"wire_bytes_out"`
}

// Summary is a latency histogram reduced to the quantiles the
// experiment tables report, in milliseconds for JSON readability. E22
// parses these keys back.
type Summary struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Summarize reduces a histogram of latencies in seconds.
func Summarize(h *metrics.Histogram) Summary {
	const ms = 1e3
	return Summary{
		Count:  uint64(h.Count()),
		MeanMs: h.Mean() * ms,
		P50Ms:  h.Quantile(0.50) * ms,
		P90Ms:  h.Quantile(0.90) * ms,
		P99Ms:  h.Quantile(0.99) * ms,
		P999Ms: h.Quantile(0.999) * ms,
		MaxMs:  h.Max() * ms,
	}
}
