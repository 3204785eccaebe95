// Package chaos is a deterministic fault-injection harness with
// ordering-invariant oracles for the broadcast substrates in this
// repository.
//
// The paper's sharpest claims are about behaviour under failure: §2.4
// argues failure notifications must be ordered with respect to message
// traffic, and §6 argues CATOCS cannot cope with partitions without
// state-level reconciliation. This package makes those claims
// executable. A fault Interposer wraps any transport.Network and
// injects per-link drops, duplicates, and reordering delays; a Script
// schedules crash/recover, partition/heal, and flaky-link windows on
// the wrapped network; oracles check the guarantees each substrate
// advertises (causal-order safety, total-order agreement, delivery-set
// agreement, stability safety, WAL durability) against the causal
// trace the run recorded. Run executes one episode of any world — a
// substrate under the interposer, or membership churn — RunEpisodes a
// seeded batch, and Shrink cuts any failing schedule to a minimal
// script, printed with the seed so every failure reproduces with one
// command.
//
// Everything is deterministic under a seed when run over SimNet: the
// interposer draws from its own seeded PRNG on the simulation's
// single-threaded dispatch, so two runs with the same seed produce
// bit-identical event streams (compared by digest).
package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"catocs/internal/transport"
)

// LinkFault is the message-level fault mix applied to a directed link.
// The zero value is a clean link.
type LinkFault struct {
	// DropProb is the probability a payload is silently discarded.
	DropProb float64
	// DupProb is the probability a payload is forwarded twice.
	DupProb float64
	// DelayProb is the probability a payload is held for Delay before
	// being forwarded — letting later sends on the link overtake it,
	// which is how the interposer manufactures reordering.
	DelayProb float64
	// Delay is the extra latency applied on a DelayProb hit.
	Delay time.Duration
}

// IsZero reports whether the fault injects nothing.
func (f LinkFault) IsZero() bool { return f == LinkFault{} }

// String renders the fault compactly, e.g. "drop=0.30,dup=0.10,delay=0.50x20ms".
func (f LinkFault) String() string {
	if f.IsZero() {
		return "clean"
	}
	var parts []string
	if f.DropProb > 0 {
		parts = append(parts, fmt.Sprintf("drop=%.2f", f.DropProb))
	}
	if f.DupProb > 0 {
		parts = append(parts, fmt.Sprintf("dup=%.2f", f.DupProb))
	}
	if f.DelayProb > 0 {
		parts = append(parts, fmt.Sprintf("delay=%.2fx%s", f.DelayProb, f.Delay))
	}
	return strings.Join(parts, ",")
}

// Faultable is the control surface fault schedules drive: a network
// that can crash nodes and partition itself. SimNet implements it;
// the Interposer forwards it.
type Faultable interface {
	transport.Network
	Crash(transport.NodeID)
	Recover(transport.NodeID)
	Crashed(transport.NodeID) bool
	Partition(...[]transport.NodeID)
	Heal()
}

// Slowable is the slow-consumer control surface: a network that can
// add inbound delivery lag at a node while leaving its outbound
// traffic timely — the §5 failure mode where a member stays "alive" to
// every detector yet pins the group's stability buffers. SimNet
// implements it; the Interposer forwards it.
type Slowable interface {
	Slow(id transport.NodeID, lag time.Duration)
	Fast(id transport.NodeID)
}

// FaultStats counts the faults the interposer actually injected.
type FaultStats struct {
	Dropped    uint64 // payloads discarded
	Duplicated uint64 // extra copies forwarded
	Delayed    uint64 // payloads held for Delay (reordering opportunities)
}

// Interposer wraps a transport.Network and injects message-level
// faults on Send. It implements transport.Network, so protocol stacks
// build on it unmodified, and Faultable, forwarding node/partition
// faults to the underlying network when it supports them.
//
// All randomness comes from the interposer's own seeded PRNG. Every
// Send runs in the wrapped network's dispatch context (the kernel
// goroutine for SimNet), one at a time, so fault draws are
// deterministic and need no lock.
type Interposer struct {
	net   transport.Network
	rng   *rand.Rand
	def   LinkFault
	links map[[2]transport.NodeID]LinkFault
	stats FaultStats
}

// NewInterposer wraps net with a clean default fault mix.
func NewInterposer(net transport.Network, seed int64) *Interposer {
	return &Interposer{
		net:   net,
		rng:   rand.New(rand.NewSource(seed)),
		links: make(map[[2]transport.NodeID]LinkFault),
	}
}

// SetDefault installs the fault mix applied to links without a
// per-link override.
func (ip *Interposer) SetDefault(f LinkFault) {
	ip.def = f
}

// SetLink overrides the fault mix for the directed pair (from, to) —
// a flaky link.
func (ip *Interposer) SetLink(from, to transport.NodeID, f LinkFault) {
	ip.links[[2]transport.NodeID{from, to}] = f
}

// ClearLink removes a per-link override, restoring the default mix.
func (ip *Interposer) ClearLink(from, to transport.NodeID) {
	delete(ip.links, [2]transport.NodeID{from, to})
}

// Stats returns a snapshot of the injected-fault counters.
func (ip *Interposer) Stats() FaultStats {
	return ip.stats
}

// Register implements transport.Network.
func (ip *Interposer) Register(id transport.NodeID, h transport.Handler) {
	ip.net.Register(id, h)
}

// Now implements transport.Network.
func (ip *Interposer) Now() time.Duration { return ip.net.Now() }

// After implements transport.Network.
func (ip *Interposer) After(d time.Duration, f func()) { ip.net.After(d, f) }

// Send implements transport.Network: roll the link's fault mix, then
// forward surviving copies to the underlying network.
func (ip *Interposer) Send(from, to transport.NodeID, payload any) {
	f, ok := ip.links[[2]transport.NodeID{from, to}]
	if !ok {
		f = ip.def
	}
	var drop, dup bool
	var delay time.Duration
	if f.DropProb > 0 && ip.rng.Float64() < f.DropProb {
		drop = true
		ip.stats.Dropped++
	} else {
		if f.DupProb > 0 && ip.rng.Float64() < f.DupProb {
			dup = true
			ip.stats.Duplicated++
		}
		if f.DelayProb > 0 && ip.rng.Float64() < f.DelayProb {
			delay = f.Delay
			ip.stats.Delayed++
		}
	}
	if drop {
		return
	}
	if delay > 0 {
		ip.net.After(delay, func() { ip.net.Send(from, to, payload) })
	} else {
		ip.net.Send(from, to, payload)
	}
	if dup {
		ip.net.Send(from, to, payload)
	}
}

// Crash forwards to the underlying network when it supports crashes.
func (ip *Interposer) Crash(id transport.NodeID) {
	if f, ok := ip.net.(Faultable); ok {
		f.Crash(id)
	}
}

// Recover forwards to the underlying network.
func (ip *Interposer) Recover(id transport.NodeID) {
	if f, ok := ip.net.(Faultable); ok {
		f.Recover(id)
	}
}

// Crashed reports the underlying network's crash state (false when
// the network has no crash model).
func (ip *Interposer) Crashed(id transport.NodeID) bool {
	if f, ok := ip.net.(Faultable); ok {
		return f.Crashed(id)
	}
	return false
}

// Partition forwards to the underlying network.
func (ip *Interposer) Partition(islands ...[]transport.NodeID) {
	if f, ok := ip.net.(Faultable); ok {
		f.Partition(islands...)
	}
}

// Heal forwards to the underlying network.
func (ip *Interposer) Heal() {
	if f, ok := ip.net.(Faultable); ok {
		f.Heal()
	}
}

// Slow forwards to the underlying network when it models slow
// consumers.
func (ip *Interposer) Slow(id transport.NodeID, lag time.Duration) {
	if s, ok := ip.net.(Slowable); ok {
		s.Slow(id, lag)
	}
}

// Fast forwards to the underlying network.
func (ip *Interposer) Fast(id transport.NodeID) {
	if s, ok := ip.net.(Slowable); ok {
		s.Fast(id)
	}
}

// Compile-time checks: SimNet satisfies the chaos control surface,
// and the interposer passes as either interface.
var (
	_ Faultable = (*transport.SimNet)(nil)
	_ Faultable = (*Interposer)(nil)
	_ Slowable  = (*transport.SimNet)(nil)
	_ Slowable  = (*Interposer)(nil)
)
