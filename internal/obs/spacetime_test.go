package obs

import (
	"strings"
	"testing"
	"time"
)

// The scenario figures (Figures 1–4) record named messages and local
// events into a Tracer and render them with RenderSpaceTime; these
// tests pin that usage.

// deliveryOrder lists the labels node delivered, in trace order.
func deliveryOrder(tr *Tracer, node int) []string {
	var out []string
	for _, e := range tr.Events() {
		if e.Kind == KDeliver && e.Node == node {
			out = append(out, e.Msg.Label)
		}
	}
	return out
}

// TestSpaceTimeDeliveryOrder: a node's KDeliver events read in time
// order, not recording order, and sends are not deliveries.
func TestSpaceTimeDeliveryOrder(t *testing.T) {
	tr := NewTracer()
	tr.SetNodeLabel(0, "P")
	tr.SetNodeLabel(1, "Q")
	tr.Deliver(2*time.Millisecond, 0, MsgRef{Sender: -1, Label: "m2"}, "")
	tr.Deliver(1*time.Millisecond, 0, MsgRef{Sender: -1, Label: "m1"}, "")
	tr.Send(3*time.Millisecond, 0, MsgRef{Sender: -1, Label: "m3"}, "")
	tr.Deliver(4*time.Millisecond, 1, MsgRef{Sender: -1, Label: "m3"}, "")
	if got := deliveryOrder(tr, 0); len(got) != 2 || got[0] != "m1" || got[1] != "m2" {
		t.Fatalf("P delivery order = %v", got)
	}
	if got := deliveryOrder(tr, 1); len(got) != 1 || got[0] != "m3" {
		t.Fatalf("Q delivery order = %v", got)
	}
}

// TestSpaceTimeSameTimeSendsStable: labelled sends at one instant keep
// their recording order.
func TestSpaceTimeSameTimeSendsStable(t *testing.T) {
	tr := NewTracer()
	tr.Send(time.Millisecond, 0, MsgRef{Sender: -1, Label: "a"}, "")
	tr.Send(time.Millisecond, 0, MsgRef{Sender: -1, Label: "b"}, "")
	ev := tr.Events()
	if ev[0].Msg.Label != "a" || ev[1].Msg.Label != "b" {
		t.Fatalf("same-time events reordered: %v %v", ev[0].Msg, ev[1].Msg)
	}
}

// TestSpaceTimeUnlabeledNodeColumn: a node with no declared label still
// gets its own column, beside the labelled ones.
func TestSpaceTimeUnlabeledNodeColumn(t *testing.T) {
	tr := NewTracer()
	tr.SetNodeLabel(0, "P")
	tr.Mark(0, 0, "start")
	tr.Mark(0, 2, "appeared")
	header := strings.Split(RenderSpaceTime("", tr.Labels(), tr.Events()), "\n")[0]
	if !strings.Contains(header, "P") || !strings.Contains(header, "n2") {
		t.Fatalf("header missing a column: %q", header)
	}
}

// TestSpaceTimeLabeledMessages: a figure drawn from named messages
// carries the title, each send and delivery by name, and the notes.
func TestSpaceTimeLabeledMessages(t *testing.T) {
	tr := NewTracer()
	for i, n := range []string{"P", "Q", "R"} {
		tr.SetNodeLabel(i, n)
	}
	m1 := MsgRef{Sender: -1, Label: "m1"}
	m2 := MsgRef{Sender: -1, Label: "m2"}
	tr.Send(0, 1, m1, "m1 sent by Q")
	tr.Deliver(2*time.Millisecond, 0, m1, "m1 received by P")
	tr.Send(3*time.Millisecond, 0, m2, "")
	tr.Deliver(5*time.Millisecond, 2, m2, "m2 received by R")
	out := RenderSpaceTime("Figure 1", tr.Labels(), tr.Events())
	for _, want := range []string{"Figure 1", "send m1", "dlvr m1", "send m2", "dlvr m2",
		"m1 sent by Q", "m1 received by P", "m2 received by R"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestKindNames: each kind's diagram name, and a fallback for
// out-of-range values.
func TestKindNames(t *testing.T) {
	for k, want := range map[Kind]string{
		KSend: "send", KWireRecv: "recv", KHoldback: "hold", KDeliver: "dlvr",
		KStabilize: "stab", KSpanBegin: "span+", KSpanEnd: "span-", KMark: "mark",
		Kind(99): "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestCenterTruncates: center cuts a long cell to the width and pads a
// short one to exactly the width.
func TestCenterTruncates(t *testing.T) {
	if got := center("abcdefgh", 4); got != "abcd" {
		t.Fatalf("center truncation = %q", got)
	}
	if got := center("ab", 6); len(got) != 6 || !strings.Contains(got, "ab") {
		t.Fatalf("center padding = %q", got)
	}
}
