package xar

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryServingOptionHasASetter holds the serving path's Config
// structs to the rule they were pruned by: an exported field stays only
// while some file other than the one declaring it — a tool, the server,
// the benchmark, a test — sets it, either as a
// key of a composite literal of that struct or as the target of an
// assignment. A field nothing sets is a constant with a default-filling
// branch around it; make it one.
//
// The audit is syntactic and by field name alone (no type checking): a
// same-named field of another struct set elsewhere keeps a field alive,
// so it can miss a dead knob but never reports a live one.
func TestEveryServingOptionHasASetter(t *testing.T) {
	// An embedded struct is listed by its own name: the embedding field
	// has no name of its own, so the loop below never reaches into it.
	serving := map[string][]string{ // import path → struct names
		"xar/internal/core":       {"Config", "Observers"},
		"xar/internal/discretize": {"Config"},
		"xar/internal/roadnet":    {"CHConfig"},
		"xar/internal/telemetry":  {"TracerConfig", "RecorderConfig"},
		"xar/internal/profile":    {"Config"},
		"xar/internal/journal":    {"Config"},
		"xar/internal/audit":      {"Config"},
	}

	type parsed struct {
		file   *ast.File
		name   string // repo-relative path
		pkgDir string // import path of the file's package
	}
	var files []parsed
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, parsed{f, filepath.ToSlash(p), path.Join("xar", filepath.ToSlash(filepath.Dir(p)))})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// declared: "importpath.Struct" → field → declaring file.
	declared := map[string]map[string]string{}
	for _, pf := range files {
		for _, want := range serving[pf.pkgDir] {
			ast.Inspect(pf.file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != want {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				fields := map[string]string{}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							fields[id.Name] = pf.name
						}
					}
				}
				declared[pf.pkgDir+"."+want] = fields
				return false
			})
		}
	}
	for pkg, names := range serving {
		for _, n := range names {
			if len(declared[pkg+"."+n]) == 0 {
				t.Fatalf("struct %s.%s not found (moved or renamed? update this test's list)", pkg, n)
			}
		}
	}

	// setIn: field name → files with a literal key or an assignment
	// target of that name.
	setIn := map[string]map[string]bool{}
	mark := func(field, file string) {
		if setIn[field] == nil {
			setIn[field] = map[string]bool{}
		}
		setIn[field][file] = true
	}
	for _, pf := range files {
		ast.Inspect(pf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					mark(k.Name, pf.name)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						mark(sel.Sel.Name, pf.name)
					}
				}
			}
			return true
		})
	}

	var dead []string
	for typ, fields := range declared {
		for f, declaredIn := range fields {
			others := len(setIn[f])
			if setIn[f][declaredIn] {
				others--
			}
			if others == 0 {
				dead = append(dead, strings.TrimPrefix(typ, "xar/internal/")+"."+f)
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: no file outside its declaring one sets it — make it a constant", d)
	}
}
