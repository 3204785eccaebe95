package scalecast

import (
	"fmt"
	"math"
	"sort"

	"catocs/internal/transport"
)

// The overlay is a circulant graph over the view: member i connects to
// i±off for a small set of offsets. Offset 1 (the ring) guarantees
// connectivity; the remaining offsets are Chord-style fingers at
// geometric spacing, so a degree-2h overlay has dissemination diameter
// O(h·N^(1/h)) while every node keeps constant fan-out — the property
// that makes the per-message control metadata independent of N.
//
// The overlay is a pure function of the (ordered) view and the degree,
// so every member computes identical wiring with no coordination, and
// a re-wire is a deterministic diff of two neighbour sets.

// overlayOffsets returns the circulant offsets for n nodes at the
// given target degree (degree/2 distinct offsets, each contributing
// the two neighbours i±off).
func overlayOffsets(n, degree int) []int {
	if n <= 1 {
		return nil
	}
	half := degree / 2
	if half < 1 {
		half = 1
	}
	seen := make(map[int]bool)
	var offs []int
	add := func(o int) {
		o %= n
		if o < 0 {
			o += n
		}
		// i+off and i-(n-off) wire the same undirected links; normalize
		// to the short direction.
		if o > n-o {
			o = n - o
		}
		if o == 0 || seen[o] {
			return
		}
		seen[o] = true
		offs = append(offs, o)
	}
	add(1)
	for j := 1; j < half; j++ {
		// Geometric fingers: n^(1/half), n^(2/half), ... — for the
		// default degree 4 this is the single ±√n chord.
		add(int(math.Round(math.Pow(float64(n), float64(j)/float64(half)))))
	}
	sort.Ints(offs)
	return offs
}

// overlayNeighbors returns the overlay peers of self within the view,
// sorted by NodeID. Small views degenerate gracefully: once the offset
// set covers everyone, the overlay is the complete graph and scalecast
// behaves like direct broadcast.
func overlayNeighbors(view []transport.NodeID, self transport.NodeID, degree int) []transport.NodeID {
	idx := -1
	for i, id := range view {
		if id == self {
			idx = i
		}
	}
	if idx < 0 {
		return nil
	}
	n := len(view)
	set := make(map[transport.NodeID]bool)
	for _, off := range overlayOffsets(n, degree) {
		set[view[(idx+off)%n]] = true
		set[view[(idx-off+n)%n]] = true
	}
	delete(set, self)
	out := make([]transport.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Rewire moves the member to a new view: links to peers no longer
// adjacent (or departed) are dropped, surviving links keep their
// sessions and in-flight state, and links to newly adjacent peers come
// up pending — buffering inbound traffic until the causal barrier of
// buffer.go activates them. Every member of the new view must be
// re-wired to the same node list for the overlay to converge; a
// process not yet in the group enters via JoinMember instead.
func (m *Member) Rewire(newNodes []transport.NodeID) {
	defer m.flush()
	if m.closed {
		return
	}
	if m.trace != nil {
		m.trace.Mark(m.net.Now(), int(m.self),
			fmt.Sprintf("rewire n=%d", len(newNodes)))
	}
	m.nodes = append([]transport.NodeID(nil), newNodes...)
	if m.rank() < 0 {
		// Departed from the view: drop everything and fall silent, the
		// graceful-leave half of the protocol.
		for _, peer := range append([]transport.NodeID(nil), m.order...) {
			m.dropLink(peer)
		}
		m.closed = true
		return
	}
	wantList := overlayNeighbors(m.nodes, m.self, m.cfg.degree())
	want := make(map[transport.NodeID]bool)
	for _, peer := range wantList {
		want[peer] = true
	}
	for _, peer := range append([]transport.NodeID(nil), m.order...) {
		if !want[peer] {
			m.dropLink(peer)
		}
	}
	// wantList is sorted: link creation (and thus barrier traffic) is
	// deterministic, keeping runs bit-identical under a seed.
	for _, peer := range wantList {
		if _, ok := m.links[peer]; !ok {
			m.addLink(peer, true)
		}
	}
}
