package catocs

import (
	"errors"
	"io/fs"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	docCmdRef = regexp.MustCompile(`\bcmd/([a-z][a-z0-9_]*)`)
	// A command followed by its arguments, up to the end of the line,
	// of the code span, of the shell command or the start of a comment.
	docCmdLine = regexp.MustCompile("\\bcmd/([a-z][a-z0-9_]*)([^`#|;\n]*)")
	docFlag    = regexp.MustCompile(`\s-([a-z][a-z0-9-]*)`)
	// `make <target>` counts as a reference right after a backtick
	// (inline code, possibly wrapped across a line break) or at the
	// start of a line inside a fenced block; "make sure" in prose does not.
	docMakeInline = regexp.MustCompile("`make\\s+([a-z][a-z0-9-]*)")
	docMakeFenced = regexp.MustCompile(`^\s*make\s+([a-z][a-z0-9-]*)`)
	makeTarget    = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
)

// TestDocsReferenceExistingTargets fails when a document names a
// command directory, a flag of one, or a Makefile target that does not
// exist.
func TestDocsReferenceExistingTargets(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}

	const skill = ".claude/skills/verify/SKILL.md"
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", skill} {
		raw, err := os.ReadFile(doc)
		if doc == skill && errors.Is(err, fs.ErrNotExist) {
			continue // the skill file is tooling, absent from a source-only checkout
		}
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)

		for _, m := range docCmdRef.FindAllStringSubmatch(text, -1) {
			if st, err := os.Stat("cmd/" + m[1]); err != nil || !st.IsDir() {
				t.Errorf("%s names cmd/%s, which does not exist", doc, m[1])
			}
		}
		for _, m := range docCmdLine.FindAllStringSubmatch(text, -1) {
			src, err := os.ReadFile("cmd/" + m[1] + "/main.go")
			if err != nil {
				continue // reported above
			}
			for _, f := range docFlag.FindAllStringSubmatch(m[2], -1) {
				if !strings.Contains(string(src), `"`+f[1]+`"`) {
					t.Errorf("%s passes -%s to cmd/%s, which defines no such flag", doc, f[1], m[1])
				}
			}
		}

		var made []string
		for _, m := range docMakeInline.FindAllStringSubmatch(text, -1) {
			made = append(made, m[1])
		}
		fenced := false
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			} else if m := docMakeFenced.FindStringSubmatch(line); fenced && m != nil {
				made = append(made, m[1])
			}
		}
		for _, target := range made {
			if !targets[target] {
				t.Errorf("%s names `make %s`, which the Makefile does not define", doc, target)
			}
		}
	}
}
