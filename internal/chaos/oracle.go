package chaos

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"catocs/internal/flowcontrol"
	"catocs/internal/obs"
	"catocs/internal/sim"
)

// Violation is one invariant breach found by an oracle.
type Violation struct {
	Oracle string // which invariant
	Detail string // what broke, with enough context to debug
}

func (v Violation) String() string { return v.Oracle + ": " + v.Detail }

// msgKey identifies an application message across the trace. Label is
// excluded: the same message keeps (Sender, Seq) at every hop.
type msgKey struct {
	Sender int64
	Seq    uint64
}

func keyOf(r obs.MsgRef) msgKey { return msgKey{Sender: r.Sender, Seq: r.Seq} }

// DeliveryOrders extracts each node's delivery sequence from a trace.
// Only KDeliver events count; the per-node order is the order the
// substrate handed messages to the application.
func DeliveryOrders(events []obs.Event) map[int][]obs.MsgRef {
	orders := make(map[int][]obs.MsgRef)
	for _, e := range events {
		if e.Kind == obs.KDeliver {
			orders[e.Node] = append(orders[e.Node], e.Msg)
		}
	}
	return orders
}

// CheckCausalOrder verifies causal delivery: if send(m1) → send(m2)
// in the potential-causality order, no node delivers m2 before m1.
//
// Causality is reconstructed from the trace itself: each node carries
// a causal past (set of message indices); a KSend snapshots the
// sender's past as the message's dependency set and adds the message
// to it; a KDeliver merges the message and its dependencies into the
// receiver's past. Sets are bitsets — episodes carry a few hundred
// messages at most.
func CheckCausalOrder(events []obs.Event) []Violation {
	// First pass: index application messages by send order.
	idx := make(map[msgKey]int)
	var refs []obs.MsgRef
	for _, e := range events {
		if e.Kind == obs.KSend {
			k := keyOf(e.Msg)
			if _, ok := idx[k]; !ok {
				idx[k] = len(refs)
				refs = append(refs, e.Msg)
			}
		}
	}
	words := (len(refs) + 63) / 64
	newSet := func() []uint64 { return make([]uint64, words) }
	setBit := func(s []uint64, i int) { s[i/64] |= 1 << (uint(i) % 64) }
	orInto := func(dst, src []uint64) {
		for w := range src {
			dst[w] |= src[w]
		}
	}

	deps := make([][]uint64, len(refs)) // deps[i]: messages causally before send of refs[i]
	past := make(map[int][]uint64)      // node → causal past
	nodePast := func(n int) []uint64 {
		p, ok := past[n]
		if !ok {
			p = newSet()
			past[n] = p
		}
		return p
	}
	// Per-node delivery positions for the final check.
	pos := make(map[int]map[int]int) // node → msg index → delivery position
	seq := make(map[int][]int)       // node → delivery sequence of msg indices
	for _, e := range events {
		i, known := idx[keyOf(e.Msg)]
		if !known {
			continue // control traffic
		}
		switch e.Kind {
		case obs.KSend:
			if deps[i] == nil {
				d := newSet()
				copy(d, nodePast(e.Node))
				deps[i] = d
				setBit(nodePast(e.Node), i)
			}
		case obs.KDeliver:
			p := nodePast(e.Node)
			setBit(p, i)
			if deps[i] != nil {
				orInto(p, deps[i])
			}
			if pos[e.Node] == nil {
				pos[e.Node] = make(map[int]int)
			}
			if _, dup := pos[e.Node][i]; !dup {
				pos[e.Node][i] = len(seq[e.Node])
				seq[e.Node] = append(seq[e.Node], i)
			}
		}
	}

	var out []Violation
	nodes := sortedNodes(pos)
	for _, n := range nodes {
		for _, j := range seq[n] {
			if deps[j] == nil {
				continue
			}
			pj := pos[n][j]
			for w, word := range deps[j] {
				for word != 0 {
					i := w*64 + bits.TrailingZeros64(word)
					word &= word - 1
					if pi, delivered := pos[n][i]; delivered && pi > pj {
						out = append(out, Violation{
							Oracle: "causal-order",
							Detail: fmt.Sprintf("node %d delivered %v (pos %d) before its causal predecessor %v (pos %d)",
								n, refs[j], pj, refs[i], pi),
						})
					}
				}
			}
		}
	}
	return out
}

// CheckTotalOrder verifies total-order agreement: any two nodes
// deliver their common messages in the same relative order. Applied
// only to substrates that promise a total order (the repo's ABCAST).
func CheckTotalOrder(orders map[int][]obs.MsgRef) []Violation {
	var out []Violation
	nodes := sortedNodes(orders)
	for a := 0; a < len(nodes); a++ {
		for b := a + 1; b < len(nodes); b++ {
			na, nb := nodes[a], nodes[b]
			posB := make(map[msgKey]int, len(orders[nb]))
			for i, r := range orders[nb] {
				posB[keyOf(r)] = i
			}
			lastB := -1
			var lastRef obs.MsgRef
			for _, r := range orders[na] {
				i, common := posB[keyOf(r)]
				if !common {
					continue
				}
				if i < lastB {
					out = append(out, Violation{
						Oracle: "total-order",
						Detail: fmt.Sprintf("nodes %d and %d disagree: %d delivers %v before %v, %d delivers them reversed",
							na, nb, na, lastRef, r, nb),
					})
				}
				if i > lastB {
					lastB, lastRef = i, r
				}
			}
		}
	}
	return out
}

// CheckAcyclicOrder is the cross-group generalisation of
// CheckTotalOrder: build the union of every node's delivery order and
// reject cycles. Within one group the two oracles agree (a pairwise
// disagreement between two nodes is exactly a 2-cycle), but only the
// acyclicity formulation extends to overlapping destination sets,
// where three nodes can each see a consistent pair yet compose into
// m1 < m2 < m3 < m1 — the ordering anomaly genuine multi-group
// multicast exists to prevent.
//
// Each node's order contributes its consecutive-pair edges; a cycle in
// the union of the full (transitive) per-node orders exists iff one
// exists in this edge union, since every per-node precedence is a path
// along that node's consecutive edges.
func CheckAcyclicOrder(orders map[int][]obs.MsgRef) []Violation {
	idx := make(map[msgKey]int)
	var refs []obs.MsgRef
	adj := make(map[int][]int)
	type edge [2]int
	witness := make(map[edge]int) // edge -> a node whose order induced it
	for _, n := range sortedNodes(orders) {
		prev := -1
		seen := make(map[msgKey]bool, len(orders[n]))
		for _, r := range orders[n] {
			k := keyOf(r)
			if seen[k] {
				continue // duplicate delivery; other oracles flag it
			}
			seen[k] = true
			i, ok := idx[k]
			if !ok {
				i = len(refs)
				idx[k] = i
				refs = append(refs, r)
			}
			if prev >= 0 {
				if _, dup := witness[edge{prev, i}]; !dup {
					witness[edge{prev, i}] = n
					adj[prev] = append(adj[prev], i)
				}
			}
			prev = i
		}
	}

	// DFS with gray/black colouring; extract the first cycle found.
	const (
		white = iota
		gray
		black
	)
	color := make([]int, len(refs))
	parent := make([]int, len(refs))
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = gray
		for _, v := range adj[u] {
			if color[v] == gray {
				cycle = append(cycle, v)
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				return true
			}
			if color[v] == white {
				parent[v] = u
				if dfs(v) {
					return true
				}
			}
		}
		color[u] = black
		return false
	}
	for u := range refs {
		if color[u] == white && dfs(u) {
			break
		}
	}
	if cycle == nil {
		return nil
	}
	// cycle is [v, u, parent(u), ...] — reverse the tail for forward
	// edge direction v -> ... -> u -> v.
	fwd := []int{cycle[0]}
	for i := len(cycle) - 1; i >= 1; i-- {
		fwd = append(fwd, cycle[i])
	}
	detail := "delivery orders form a cycle: "
	for i, u := range fwd {
		if i > 0 {
			detail += fmt.Sprintf(" -> (node %d) ", witness[edge{fwd[i-1], u}])
		}
		detail += fmt.Sprint(refs[u])
	}
	detail += fmt.Sprintf(" -> (node %d) %v", witness[edge{fwd[len(fwd)-1], fwd[0]}], refs[fwd[0]])
	return []Violation{{Oracle: "acyclic-order", Detail: detail}}
}

// CheckDestLiveness verifies destination-restricted liveness and
// genuineness for multi-group multicast: every node in a sent
// message's destination set delivers it, and no node outside the set
// does. dests maps an application message to its destination node set;
// messages it returns nil for are skipped (control traffic, or casts
// whose destinations the caller did not record). faulty carries the
// same all-or-nothing crashed-sender exemption as CheckLiveness.
func CheckDestLiveness(events []obs.Event, dests func(sender int64, seq uint64) []int, faulty []int) []Violation {
	crashed := make(map[int64]bool, len(faulty))
	for _, n := range faulty {
		crashed[int64(n)] = true
	}
	sent := make(map[msgKey]obs.MsgRef)
	got := make(map[msgKey]map[int]bool)
	for _, e := range events {
		switch e.Kind {
		case obs.KSend:
			sent[keyOf(e.Msg)] = e.Msg
		case obs.KDeliver:
			k := keyOf(e.Msg)
			if got[k] == nil {
				got[k] = make(map[int]bool)
			}
			got[k][e.Node] = true
		}
	}
	var out []Violation
	for k, r := range sent {
		want := dests(k.Sender, k.Seq)
		if want == nil {
			continue
		}
		isDest := make(map[int]bool, len(want))
		for _, n := range want {
			isDest[n] = true
		}
		if crashed[k.Sender] && len(got[k]) == 0 {
			continue // all-or-nothing loss at a crashed sender
		}
		for _, n := range want {
			if !got[k][n] {
				out = append(out, Violation{
					Oracle: "dest-liveness",
					Detail: fmt.Sprintf("destination node %d never delivered %v", n, r),
				})
			}
		}
		for n := range got[k] {
			if !isDest[n] {
				out = append(out, Violation{
					Oracle: "dest-liveness",
					Detail: fmt.Sprintf("node %d delivered %v without being a destination", n, r),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Detail < out[j].Detail })
	return out
}

// CheckSameSet verifies delivery-set agreement (the virtual-synchrony
// flavour of atomicity for a static view): every listed node delivers
// exactly the same set of messages.
func CheckSameSet(orders map[int][]obs.MsgRef, nodes []int) []Violation {
	sets := make(map[int]map[msgKey]obs.MsgRef, len(nodes))
	union := make(map[msgKey]obs.MsgRef)
	for _, n := range nodes {
		sets[n] = make(map[msgKey]obs.MsgRef, len(orders[n]))
		for _, r := range orders[n] {
			sets[n][keyOf(r)] = r
			union[keyOf(r)] = r
		}
	}
	var out []Violation
	for _, n := range nodes {
		for k, r := range union {
			if _, ok := sets[n][k]; !ok {
				out = append(out, Violation{
					Oracle: "same-set",
					Detail: fmt.Sprintf("node %d missed %v that another node delivered", n, r),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Detail < out[j].Detail })
	return out
}

// CheckLiveness verifies eventual delivery — the two liveness halves
// of reliable broadcast:
//
//   - validity: a message from a sender that never crashed reaches
//     every listed node;
//   - agreement: a message delivered by ANY node reaches every node.
//
// faulty lists nodes the fault schedule crashed at some point. A
// message from a faulty sender that no node ever delivered is a legal
// all-or-nothing loss: the sender can crash with every copy (loopback
// included) still in flight, and "none" is then the permitted
// outcome. Sound only under the fail-stop discipline the Runner
// enforces (crashed nodes do not originate sends, and every fault in
// the schedule is repaired before the settle window).
func CheckLiveness(events []obs.Event, nodes []int, faulty []int) []Violation {
	crashed := make(map[int64]bool, len(faulty))
	for _, n := range faulty {
		crashed[int64(n)] = true
	}
	sent := make(map[msgKey]obs.MsgRef)
	got := make(map[int]map[msgKey]bool)
	for _, e := range events {
		switch e.Kind {
		case obs.KSend:
			sent[keyOf(e.Msg)] = e.Msg
		case obs.KDeliver:
			if got[e.Node] == nil {
				got[e.Node] = make(map[msgKey]bool)
			}
			got[e.Node][keyOf(e.Msg)] = true
		}
	}
	var out []Violation
	for k, r := range sent {
		if crashed[k.Sender] {
			anywhere := false
			for _, n := range nodes {
				if got[n][k] {
					anywhere = true
					break
				}
			}
			if !anywhere {
				continue // all-or-nothing loss at a crashed sender
			}
		}
		for _, n := range nodes {
			if !got[n][k] {
				out = append(out, Violation{
					Oracle: "liveness",
					Detail: fmt.Sprintf("node %d never delivered %v", n, r),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Detail < out[j].Detail })
	return out
}

// CheckStabilitySafety verifies a message is never reported stable
// before every listed node has delivered it. Events() is sorted by
// simulation time, so "before" is a scan: a KStabilize for m with a
// node still missing KDeliver(m) is a violation. Applied to the
// matrix-clock substrates (atomic CBCAST/ABCAST).
func CheckStabilitySafety(events []obs.Event, nodes []int) []Violation {
	delivered := make(map[msgKey]map[int]bool)
	flagged := make(map[msgKey]bool)
	var out []Violation
	for _, e := range events {
		switch e.Kind {
		case obs.KDeliver:
			k := keyOf(e.Msg)
			if delivered[k] == nil {
				delivered[k] = make(map[int]bool)
			}
			delivered[k][e.Node] = true
		case obs.KStabilize:
			k := keyOf(e.Msg)
			if flagged[k] {
				continue
			}
			for _, n := range nodes {
				if !delivered[k][n] {
					flagged[k] = true
					out = append(out, Violation{
						Oracle: "stability-safety",
						Detail: fmt.Sprintf("node %d marked %v stable at %s but node %d had not delivered it",
							e.Node, e.Msg, e.T, n),
					})
					break
				}
			}
		}
	}
	return out
}

// CheckBoundedMemory verifies the flow-control contract: with a
// limited budget and a policy installed, no member's in-memory
// unstable buffer may exceed the budget at any point in the run — not
// on average, and not transiently, because the §5 failure mode is
// precisely a transient that never ends. The inputs are the episode's
// high-water marks (worst over members and time); with an unlimited
// budget or no policy there is nothing to check and the oracle passes
// vacuously.
func CheckBoundedMemory(maxHoldback, stabHighWater int64, budget flowcontrol.Budget, pol flowcontrol.Policy) []Violation {
	if !budget.Limited() || budget.MaxMsgs <= 0 || pol == flowcontrol.None {
		return nil
	}
	var out []Violation
	limit := int64(budget.MaxMsgs)
	if stabHighWater > limit {
		out = append(out, Violation{
			Oracle: "bounded-memory",
			Detail: fmt.Sprintf("stability buffer high-water %d exceeds budget %d msgs", stabHighWater, limit),
		})
	}
	// The holdback queue holds undeliverable (out-of-order) arrivals.
	// Under the window policies every held message is some sender's
	// outstanding cast, so per-sender admission bounds it by the same
	// group budget. Spill deliberately admits everything — its bound is
	// the in-memory stability occupancy above, not the holdback queue.
	if pol != flowcontrol.Spill && maxHoldback > limit {
		out = append(out, Violation{
			Oracle: "bounded-memory",
			Detail: fmt.Sprintf("holdback high-water %d exceeds budget %d msgs", maxHoldback, limit),
		})
	}
	return out
}

// CheckQuiescent verifies that a settled group falls silent: with every
// fault repaired and every message delivered and stable, nothing is
// left to acknowledge or recover, so once the kernel has run a further
// span no event may remain scheduled. Applied to the atomic CBCAST and
// ABCAST episodes whose script leaves the network whole; it runs after
// the trace is digested, so the span never moves a digest.
func CheckQuiescent(k *sim.Kernel, span time.Duration) []Violation {
	k.RunUntil(k.Now() + span)
	if n := k.Pending(); n > 0 {
		return []Violation{{
			Oracle: "quiescence",
			Detail: fmt.Sprintf("%d events still scheduled at %v, %v after the settle window", n, k.Now(), span),
		}}
	}
	return nil
}

func sortedNodes[V any](m map[int]V) []int {
	nodes := make([]int, 0, len(m))
	for n := range m {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	return nodes
}
