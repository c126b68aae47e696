package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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

// optionStructs are the configuration surfaces a caller fills in: where
// each is declared and the spellings its composite literals take across
// the module ("dir:Name" is the unqualified spelling inside dir).
var optionStructs = []struct {
	file, name string
	literals   []string
}{
	{"repro.go", "MachineConfig", []string{".:MachineConfig", "repro.MachineConfig"}},
	{"scheduler.go", "SchedulerConfig", []string{".:SchedulerConfig", "repro.SchedulerConfig"}},
	{"internal/dist/coordinator.go", "Config", []string{"internal/dist:Config", "dist.Config", ".:DistConfig", "repro.DistConfig"}},
	{"internal/pdmdapi/server.go", "Options", []string{"internal/pdmdapi:Options", "pdmdapi.Options"}},
}

// TestConfigFieldsHaveSetters: an option nothing sets is a constant with a
// field's upkeep (docs, defaulting, a validation arm, a wire spelling).
// Every exported field of the option structs must be written by non-test
// Go outside its declaring file — a composite-literal key of that type, or
// an assignment or flag.*Var target selecting the field by name — so the
// next option arrives with its caller (cmd/, bench/, examples/ and the
// facade's own wiring all count).
func TestConfigFieldsHaveSetters(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		files[filepath.ToSlash(path)] = f
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	typeName := func(dir string, e ast.Expr) string {
		switch e := e.(type) {
		case *ast.Ident:
			return dir + ":" + e.Name
		case *ast.SelectorExpr:
			if pkg, ok := e.X.(*ast.Ident); ok {
				return pkg.Name + "." + e.Sel.Name
			}
		}
		return ""
	}
	for _, st := range optionStructs {
		// The struct's exported fields, from its declaration.
		var fields []string
		ast.Inspect(files[st.file], func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != st.name {
				return true
			}
			for _, f := range ts.Type.(*ast.StructType).Fields.List {
				for _, name := range f.Names {
					if name.IsExported() {
						fields = append(fields, name.Name)
					}
				}
			}
			return false
		})
		if len(fields) == 0 {
			t.Fatalf("%s declares no struct %s with exported fields; optionStructs rotted", st.file, st.name)
		}
		written := map[string]bool{}
		for path, f := range files {
			if path == st.file {
				continue
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			isOption := func(e ast.Expr) bool {
				if star, ok := e.(*ast.StarExpr); ok {
					e = star.X
				}
				return slices.Contains(st.literals, typeName(dir, e))
			}
			// The names this file binds to the struct: fields, parameters
			// and variables declared with its type or from its literal.
			bound := map[string]bool{}
			bind := func(typ ast.Expr, names ...*ast.Ident) {
				if isOption(typ) {
					for _, name := range names {
						bound[name.Name] = true
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Field:
					bind(n.Type, n.Names...)
				case *ast.ValueSpec:
					bind(n.Type, n.Names...)
				case *ast.AssignStmt:
					for i, rhs := range n.Rhs {
						if addr, ok := rhs.(*ast.UnaryExpr); ok {
							rhs = addr.X
						}
						lit, isLit := rhs.(*ast.CompositeLit)
						if name, isIdent := n.Lhs[i].(*ast.Ident); isLit && isIdent {
							bind(lit.Type, name)
						}
					}
				}
				return true
			})
			// x.F, r.x.F: a selection of F from a name bound to the struct.
			selects := func(e ast.Expr) {
				sel, ok := e.(*ast.SelectorExpr)
				if !ok {
					return
				}
				var base *ast.Ident
				switch x := sel.X.(type) {
				case *ast.Ident:
					base = x
				case *ast.SelectorExpr:
					base = x.Sel
				}
				if base != nil && bound[base.Name] {
					written[sel.Sel.Name] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if !isOption(n.Type) {
						return true
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								written[key.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						selects(lhs)
					}
				case *ast.CallExpr:
					fun, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || !strings.HasSuffix(fun.Sel.Name, "Var") || len(n.Args) == 0 {
						return true
					}
					if addr, ok := n.Args[0].(*ast.UnaryExpr); ok && addr.Op == token.AND {
						selects(addr.X)
					}
				}
				return true
			})
		}
		for _, field := range fields {
			if !written[field] {
				t.Errorf("%s.%s (%s) is set by no non-test Go outside its declaring file: make it a constant, or land it with its caller", st.name, field, st.file)
			}
		}
	}
}
