// Package flowcontrol defines the budget and overflow-policy vocabulary
// shared by the buffered broadcast substrates.
//
// The paper's Section 5 argues that CATOCS stability buffering grows
// without bound the moment one receiver is slow: every member must hold
// every message until it is known delivered everywhere, so one laggard
// pins the eviction frontier for the whole group. The section then
// observes that the substrate's only remedies are to block the group,
// to drop traffic, or to excise the laggard — and that it cannot know
// which the application wants. This package turns that trilemma into a
// configuration surface: a Budget bounds how much unstable state a
// member may hold, and a Policy names the reaction when the budget is
// hit. The enforcement mechanisms live with the substrates
// (internal/multicast, internal/scalecast, internal/stability); the
// chaos harness and experiment E19 measure what each choice costs.
package flowcontrol

import (
	"fmt"
	"strings"
)

// Policy selects the reaction when a buffer budget is exhausted.
type Policy int

const (
	// None disables enforcement: buffers grow without bound, the
	// paper's default CATOCS behaviour and E19's control arm.
	None Policy = iota
	// Block stalls the sender-side admission window: new casts queue
	// locally (unsent, unstamped) until stability evictions free
	// budget. Backpressure — the group's throughput degrades to the
	// slowest receiver's pace.
	Block
	// Shed rejects new casts outright with a counted, traced
	// rejection. Memory stays bounded and throughput stays high, at
	// the price of losing offered load — the "drop traffic" arm.
	Shed
	// Spill admits every cast but overflows unstable messages beyond
	// the budget to stable storage (internal/wal), reloading them on
	// NACK. Memory stays bounded; retransmission pays a reload.
	Spill
	// Suspect behaves like Block, but a stall that persists accuses the
	// stability laggard, the member whose acks pin the frontier, and the
	// membership layer's view change excises it so the frontier advances
	// and buffers drain: the "remove the slow receiver" arm, CATOCS's
	// failure model applied to a live process. Silent members are left
	// to the membership layer's heartbeats.
	Suspect
)

// Policies lists every policy in presentation order.
var Policies = []Policy{None, Block, Shed, Spill, Suspect}

// String names the policy.
func (p Policy) String() string {
	switch p {
	case None:
		return "none"
	case Block:
		return "block"
	case Shed:
		return "shed"
	case Spill:
		return "spill"
	case Suspect:
		return "suspect"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy inverts String (case-insensitive).
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "none", "":
		return None, nil
	case "block":
		return Block, nil
	case "shed":
		return Shed, nil
	case "spill":
		return Spill, nil
	case "suspect":
		return Suspect, nil
	}
	return None, fmt.Errorf("flowcontrol: unknown policy %q (want none|block|shed|spill|suspect)", s)
}

// Budget bounds a buffer in messages and bytes. A zero field means
// unlimited on that axis; the zero value is fully unlimited.
type Budget struct {
	MaxMsgs  int
	MaxBytes int
}

// Limited reports whether the budget constrains anything.
func (b Budget) Limited() bool { return b.MaxMsgs > 0 || b.MaxBytes > 0 }

// Admits reports whether a buffer currently holding msgs messages and
// bytes bytes can accept one more of addBytes without exceeding the
// budget.
func (b Budget) Admits(msgs, bytes, addBytes int) bool {
	if b.MaxMsgs > 0 && msgs+1 > b.MaxMsgs {
		return false
	}
	if b.MaxBytes > 0 && bytes+addBytes > b.MaxBytes {
		return false
	}
	return true
}

// Exceeded reports whether an occupancy of msgs messages and bytes
// bytes is already over the budget.
func (b Budget) Exceeded(msgs, bytes int) bool {
	if b.MaxMsgs > 0 && msgs > b.MaxMsgs {
		return true
	}
	if b.MaxBytes > 0 && bytes > b.MaxBytes {
		return true
	}
	return false
}

// Share divides the budget into n equal sender shares (each axis
// rounded down, floored at 1 message so a tiny budget still admits
// one cast per sender). The admission-window arithmetic rests on it:
// if each of n senders bounds its own outstanding unstable casts to
// Share(n), then any member's unstable buffer — which holds at most
// the union of all senders' outstanding casts — stays within the full
// Budget.
func (b Budget) Share(n int) Budget {
	if n <= 1 || !b.Limited() {
		return b
	}
	out := Budget{}
	if b.MaxMsgs > 0 {
		out.MaxMsgs = b.MaxMsgs / n
		if out.MaxMsgs < 1 {
			out.MaxMsgs = 1
		}
	}
	if b.MaxBytes > 0 {
		out.MaxBytes = b.MaxBytes / n
		if out.MaxBytes < 1 {
			out.MaxBytes = 1
		}
	}
	return out
}

// String renders the budget compactly, e.g. "48msgs/8KiB" or
// "unlimited".
func (b Budget) String() string {
	if !b.Limited() {
		return "unlimited"
	}
	var parts []string
	if b.MaxMsgs > 0 {
		parts = append(parts, fmt.Sprintf("%dmsgs", b.MaxMsgs))
	}
	if b.MaxBytes > 0 {
		parts = append(parts, fmt.Sprintf("%dB", b.MaxBytes))
	}
	return strings.Join(parts, "/")
}
