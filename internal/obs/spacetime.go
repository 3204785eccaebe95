package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// ASCII space-time diagram rendering: one column per node, time
// advancing down the page, in the style of the paper's Figures 1–4 —
// except drawn from a recorded execution rather than by hand. Deliver
// rows are annotated with the latency decomposition (wire time +
// holdback) when the trace contains the matching send and receive,
// which makes the diagrams show not just *what order* things happened
// in but *why a delivery waited* — the cost the paper's §5 model only
// estimates.

// colWidth is the space-time diagram's per-node column width.
const colWidth = 16

// RenderSpaceTime draws the diagram. labels names node columns (nil
// falls back to n<id>).
func RenderSpaceTime(title string, labels map[int]string, events []Event) string {
	nodes := map[int]bool{}
	for _, e := range events {
		nodes[e.Node] = true
	}
	ids := make([]int, 0, len(nodes))
	for n := range nodes {
		ids = append(ids, n)
	}
	sort.Ints(ids)
	col := make(map[int]int, len(ids))
	for i, n := range ids {
		col[n] = i
	}

	// Latency decomposition for deliver-row annotations.
	sends := make(map[MsgRef]Event)
	firstRecv := make(map[recvKey]time.Duration)
	for _, e := range events {
		switch e.Kind {
		case KSend:
			if _, dup := sends[e.Msg]; !dup {
				sends[e.Msg] = e
			}
		case KWireRecv:
			k := recvKey{e.Msg, e.Node}
			if t, ok := firstRecv[k]; !ok || e.T < t {
				firstRecv[k] = e.T
			}
		}
	}

	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	b.WriteString(strings.Repeat(" ", 10))
	for _, n := range ids {
		b.WriteString(center(nodeLabel(labels, n), colWidth))
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat(" ", 10))
	for range ids {
		b.WriteString(center("|", colWidth))
	}
	b.WriteByte('\n')

	for _, e := range events {
		fmt.Fprintf(&b, "%8.2fms", float64(e.T.Microseconds())/1000.0)
		cell := e.Kind.String()
		switch {
		case !e.Msg.IsZero():
			cell += " " + e.Msg.String()
		case e.Name != "" && len(cell)+1+len(e.Name) <= colWidth:
			cell += " " + e.Name
			// A name too long for the cell renders in the note margin
			// instead (rowNote), keeping columns aligned.
		}
		for i := range ids {
			if i == col[e.Node] {
				b.WriteString(center(cell, colWidth))
			} else {
				b.WriteString(center("|", colWidth))
			}
		}
		if note := rowNote(e, sends, firstRecv); note != "" {
			b.WriteString("  " + note)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// rowNote builds the right-margin annotation for one event row.
func rowNote(e Event, sends map[MsgRef]Event, firstRecv map[recvKey]time.Duration) string {
	switch e.Kind {
	case KDeliver:
		send, haveSend := sends[e.Msg]
		recvT, haveRecv := firstRecv[recvKey{e.Msg, e.Node}]
		var parts []string
		if haveSend && haveRecv && send.Node != e.Node {
			parts = append(parts, fmt.Sprintf("net %.2fms + held %.2fms",
				(recvT-send.T).Seconds()*1e3, (e.T-recvT).Seconds()*1e3))
		}
		if e.Name != "" {
			parts = append(parts, e.Name)
		}
		if e.Ctx != "" {
			parts = append(parts, e.Ctx)
		}
		return strings.Join(parts, "  ")
	case KWireRecv, KHoldback:
		return e.Name
	case KSend, KStabilize:
		return e.Ctx
	case KSpanBegin:
		return "begin " + e.Name
	case KSpanEnd:
		return "end " + e.Name
	case KMark:
		if len("mark ")+len(e.Name) > colWidth {
			return e.Name
		}
	}
	return ""
}

// center pads s to width w with the text approximately centred,
// truncating when too long.
func center(s string, w int) string {
	if len(s) >= w {
		return s[:w]
	}
	left := (w - len(s)) / 2
	right := w - len(s) - left
	return strings.Repeat(" ", left) + s + strings.Repeat(" ", right)
}
