package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// Edge-case coverage for the two exporters: empty traces, single-event
// traces, and label strings that need JSON escaping (quotes, newlines,
// non-ASCII) must all round-trip without panics or malformed output.

func TestChromeTraceEmpty(t *testing.T) {
	c := NewChromeTrace()
	var b strings.Builder
	if err := c.Encode(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("empty trace has %d events", len(doc.TraceEvents))
	}

	// An added process with no events still yields valid JSON.
	c.AddProcess("empty run", nil, nil)
	b.Reset()
	if err := c.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("empty process not valid JSON: %v", err)
	}
}

func TestChromeTraceSingleEvent(t *testing.T) {
	tr := NewTracer()
	tr.Send(time.Millisecond, 0, MsgRef{Sender: 0, Seq: 1}, "ctx")
	c := NewChromeTrace()
	c.AddProcess("one", tr.Labels(), tr.Events())
	var b strings.Builder
	if err := c.Encode(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("single-event trace not valid JSON: %v", err)
	}
	// process_name meta + thread_name meta + the send instant.
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("single-event trace encoded %d entries, want 3", len(doc.TraceEvents))
	}
}

func TestChromeTraceEscapesLabels(t *testing.T) {
	tr := NewTracer()
	tr.SetNodeLabel(0, "node \"zero\"\nβ")
	nasty := MsgRef{Sender: -1, Label: "m\"sg\nwith 引用"}
	tr.Send(0, 0, nasty, `vc={"p":1}`)
	tr.WireRecv(time.Millisecond, 0, nasty)
	tr.Deliver(2*time.Millisecond, 0, nasty, "ctx\twith\ttabs")
	tr.Mark(3*time.Millisecond, 0, "mark \\ with \"quotes\"")
	c := NewChromeTrace()
	c.AddProcess("run \"β\"\n", tr.Labels(), tr.Events())
	var b strings.Builder
	if err := c.Encode(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("escaped labels broke JSON: %v\n%s", err, b.String())
	}
	// The raw label text must survive the round trip.
	found := false
	for _, e := range doc.TraceEvents {
		if args, ok := e["args"].(map[string]any); ok {
			if name, ok := args["name"].(string); ok && strings.Contains(name, "node \"zero\"\nβ") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("escaped node label did not round-trip:\n%s", b.String())
	}
}

func TestRenderSpaceTimeEmpty(t *testing.T) {
	out := RenderSpaceTime("empty", nil, nil)
	if !strings.Contains(out, "empty") {
		t.Fatalf("empty diagram lost its title: %q", out)
	}
	// No events → header only, no panic.
	if strings.Count(out, "\n") > 3 {
		t.Fatalf("empty diagram rendered rows:\n%s", out)
	}
}

func TestRenderSpaceTimeSingleEvent(t *testing.T) {
	tr := NewTracer()
	tr.Send(time.Millisecond, 3, MsgRef{Sender: 3, Seq: 9}, "")
	out := RenderSpaceTime("", tr.Labels(), tr.Events())
	for _, want := range []string{"n3", "send 3:9", "1.00ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("single-event diagram missing %q:\n%s", want, out)
		}
	}
	// A label wider than the column is cut to the column.
	tr.SetNodeLabel(3, "ColumnLabelTooWide")
	out = RenderSpaceTime("", tr.Labels(), tr.Events())
	if header := strings.Split(out, "\n")[0]; header != strings.Repeat(" ", 10)+"ColumnLabelTooWi" {
		t.Fatalf("wide label not truncated to the column:\n%s", out)
	}
}

func TestRenderSpaceTimeNonASCIILabels(t *testing.T) {
	tr := NewTracer()
	tr.SetNodeLabel(0, "ノード")
	ref := MsgRef{Sender: -1, Label: "μ1"}
	tr.Send(0, 0, ref, "")
	tr.Deliver(time.Millisecond, 0, ref, "line1\nline2")
	out := RenderSpaceTime("τ", tr.Labels(), tr.Events())
	if !strings.Contains(out, "μ1") {
		t.Fatalf("non-ASCII message label lost:\n%s", out)
	}
	// Rendering must not panic and must keep one row per event.
	if strings.Count(out, "dlvr") != 1 {
		t.Fatalf("deliver row missing:\n%s", out)
	}
}
