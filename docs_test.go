package catocs

import (
	"errors"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	docDirRef = regexp.MustCompile(`\b(cmd|examples|internal)/([a-z][a-z0-9_]*)`)
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
// command or example directory, a flag of a command, or a Makefile
// target that does not exist, or when a comment in non-test Go code
// names a directory that does not exist.
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

		checkDirRefs(t, doc, text)
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

	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, tooling and build output
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, c := range f.Comments {
			checkDirRefs(t, filepath.ToSlash(p), c.Text())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkDirRefs reports each cmd/, examples/ or internal/ directory that
// text names and the tree does not hold.
func checkDirRefs(t *testing.T, where, text string) {
	t.Helper()
	for _, m := range docDirRef.FindAllStringSubmatch(text, -1) {
		dir := m[1] + "/" + m[2]
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Errorf("%s names %s, which does not exist", where, dir)
		}
	}
}

// TestInventoryMatchesTree holds DESIGN.md's System inventory to the
// tree: every directory under internal/, cmd/ or examples/ that holds
// non-test Go is listed, and every directory listed exists. A root
// that does not exist holds nothing.
func TestInventoryMatchesTree(t *testing.T) {
	listed, err := inventoryDirs("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for dir := range listed {
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Errorf("DESIGN.md's inventory lists %s/, which does not exist", dir)
		}
	}
	for _, root := range []string{"internal", "cmd", "examples"} {
		if _, err := os.Stat(root); errors.Is(err, fs.ErrNotExist) {
			continue
		}
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			if dir := filepath.ToSlash(filepath.Dir(p)); !listed[dir] {
				listed[dir] = true // report each directory once
				t.Errorf("%s holds Go code but DESIGN.md's inventory does not list it", dir)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// inventoryDirs parses the indented tree in the fenced block under
// doc's "System inventory" heading into directory paths relative to
// the module root. A directory entry is a name ending in "/" left of
// the description column; deeper indentation nests it under the entry
// above. The first entry is the module root itself.
func inventoryDirs(doc string) (map[string]bool, error) {
	raw, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	_, block, ok := strings.Cut(string(raw), "## System inventory")
	if ok {
		_, block, ok = strings.Cut(block, "```\n")
	}
	if ok {
		block, _, ok = strings.Cut(block, "```")
	}
	if !ok {
		return nil, errors.New(doc + " has no fenced System inventory block")
	}
	const descColumn = 32
	type entry struct {
		indent int
		dir    string // with a trailing "/"; "" for the module root
	}
	var stack []entry
	dirs := map[string]bool{}
	for _, line := range strings.Split(block, "\n") {
		indent := len(line) - len(strings.TrimLeft(line, " "))
		fields := strings.Fields(line)
		if indent >= descColumn || len(fields) == 0 || !strings.HasSuffix(fields[0], "/") {
			continue
		}
		for len(stack) > 0 && stack[len(stack)-1].indent >= indent {
			stack = stack[:len(stack)-1]
		}
		dir := ""
		if len(stack) > 0 {
			dir = stack[len(stack)-1].dir + fields[0]
			dirs[strings.TrimSuffix(dir, "/")] = true
		}
		stack = append(stack, entry{indent, dir})
	}
	return dirs, nil
}
