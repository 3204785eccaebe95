// Package experiments contains the runnable reproductions of every
// figure and quantitative claim in the paper, indexed E1–E22, E24 and
// the total-order ablation (see DESIGN.md). Each experiment is a pure
// function of its parameters — deterministic under a seed — returning
// a Table the harness renders, plus programmatic fields the tests assert on.
//
// The experiments deliberately instantiate both sides of the paper's
// argument from this repository's own substrates: the CATOCS stack
// (internal/multicast, internal/group, internal/stability) and the
// state-level alternatives (internal/state, internal/transact,
// internal/detect, internal/realtime).
package experiments

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper's qualitative claim, quoted or condensed
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render draws the table in aligned plain text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// RenderMarkdown converts the table to GitHub-flavoured Markdown, the
// layout EXPERIMENTS.md embeds.
func (t *Table) RenderMarkdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "**Paper's claim:** %s\n\n", t.Claim)
	}
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// fmtMs renders a seconds value as milliseconds with 2 decimals.
func fmtMs(seconds float64) string { return fmt.Sprintf("%.2f", seconds*1000) }

// fmtF renders a float briefly.
func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

// fmtI renders an int.
func fmtI(v int) string { return fmt.Sprintf("%d", v) }

// fmtU renders a uint64.
func fmtU(v uint64) string { return fmt.Sprintf("%d", v) }
