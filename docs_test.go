package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
)

// docsFiles are the user-facing documents the CI docs leg link-checks.
var docsFiles = []string{"README.md", "ARCHITECTURE.md"}

// TestDocsFileReferencesResolve: every relative markdown link and every
// inline code span that names a repository path in README/ARCHITECTURE
// must point at something that exists — stale references are how docs
// rot.
func TestDocsFileReferencesResolve(t *testing.T) {
	link := regexp.MustCompile(`\]\(([^)#]+)(#[^)]*)?\)`)
	span := regexp.MustCompile("`([A-Za-z0-9_./-]+)`")
	for _, doc := range docsFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v (docs moved without updating docsFiles?)", doc, err)
		}
		text := string(raw)
		for _, m := range link.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.Contains(target, "://") {
				continue // external URL; not checked offline
			}
			if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
				t.Errorf("%s links to %q, which does not exist", doc, target)
			}
		}
		for _, m := range span.FindAllStringSubmatch(text, -1) {
			path := strings.TrimPrefix(m[1], "repro/")
			// Only spans that look like repository paths: they contain a
			// separator and live under a real top-level entry.
			if !strings.Contains(path, "/") {
				continue
			}
			root := path[:strings.Index(path, "/")]
			if root != "cmd" && root != "internal" && root != "examples" {
				continue
			}
			if _, err := os.Stat(filepath.FromSlash(path)); err != nil {
				t.Errorf("%s mentions `%s`, which does not exist", doc, m[1])
			}
		}
	}
}

// TestDocsGoCommentReferencesResolve: Go comments rot the same way — every
// *.md a comment names must exist, at the repository root or beside the
// file (package comments used to point at design documents that were never
// committed).
func TestDocsGoCommentReferencesResolve(t *testing.T) {
	mdName := regexp.MustCompile(`[A-Za-z0-9_./-]+\.md\b`)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for ln, line := range strings.Split(string(raw), "\n") {
			_, comment, ok := strings.Cut(line, "//")
			if !ok {
				continue
			}
			for _, name := range mdName.FindAllString(comment, -1) {
				_, atRoot := os.Stat(filepath.FromSlash(name))
				_, beside := os.Stat(filepath.Join(filepath.Dir(path), filepath.FromSlash(name)))
				if atRoot != nil && beside != nil {
					t.Errorf("%s:%d: comment names %s, which does not exist", path, ln+1, name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDocsFlagReferencesResolve: every -flag a README/ARCHITECTURE
// command line passes to pdmsort or pdmd must be declared by that
// binary, so the docs never teach flags the CLIs dropped.
func TestDocsFlagReferencesResolve(t *testing.T) {
	declared := func(mainPath string) map[string]bool {
		raw, err := os.ReadFile(mainPath)
		if err != nil {
			t.Fatal(err)
		}
		decl := regexp.MustCompile(`flag\.\w+\(\s*&?[^,]*,?\s*"([a-z]+)"`)
		flags := map[string]bool{}
		for _, m := range decl.FindAllStringSubmatch(string(raw), -1) {
			flags[m[1]] = true
		}
		if len(flags) == 0 {
			t.Fatalf("%s declares no flags; the extraction regexp rotted", mainPath)
		}
		return flags
	}
	bins := map[string]map[string]bool{
		"pdmsort": declared("cmd/pdmsort/main.go"),
		"pdmd":    declared("cmd/pdmd/main.go"),
	}
	used := regexp.MustCompile(` -([a-z]+)`)
	for _, doc := range docsFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for ln, line := range strings.Split(string(raw), "\n") {
			for bin, flags := range bins {
				if !strings.Contains(line, bin+" -") {
					continue
				}
				for _, m := range used.FindAllStringSubmatch(line, -1) {
					if !flags[m[1]] {
						t.Errorf("%s:%d passes -%s to %s, which declares no such flag", doc, ln+1, m[1], bin)
					}
				}
			}
		}
	}
}

// TestDocsAlgorithmListMatchesTable: the -alg lists a reader copies from —
// README's and pdmsort's usage comment — must be exactly the algorithm
// table's short names (pdmsort's flag help and ParseAlgorithm's error are
// generated from the table, so they cannot drift).
func TestDocsAlgorithmListMatchesTable(t *testing.T) {
	list := regexp.MustCompile(`-alg ((?:[a-z0-9]+\|)+[a-z0-9]+)`)
	for _, doc := range []string{"README.md", "cmd/pdmsort/main.go"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		found := list.FindAllStringSubmatch(string(raw), -1)
		if len(found) == 0 {
			t.Errorf("%s spells no -alg list; the extraction regexp rotted", doc)
		}
		for _, m := range found {
			if m[1] != core.AlgNames() {
				t.Errorf("%s lists -alg %s, the algorithm table says %s", doc, m[1], core.AlgNames())
			}
		}
	}
}
