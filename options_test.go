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

// TestEveryServingOptionHasASetter holds every config struct of the
// module — each non-test struct type named Options, Scale or …Config,
// plus core.Observers, which core.Config embeds — to the rule they were
// pruned by (EXPERIMENTS.md, "Every config field earns its place"): an
// exported field stays only while some file other than the one
// declaring it — a tool, the server, the benchmark, a test — sets it,
// either as a key of a composite literal or as the target of an
// assignment, or the declaring file sets it from a parameter of the
// function it does so in (DefaultCityConfig(rows, cols, seed) sets Rows,
// Cols and Seed for its callers). A field nothing sets is a constant
// with a default-filling branch around it; make it one.
//
// The audit is syntactic and by field name alone (no type checking): a
// same-named field of another struct set elsewhere keeps a field alive,
// so it can miss a dead knob but never reports a live one.
func TestEveryServingOptionHasASetter(t *testing.T) {
	isConfig := func(pkgDir, name string) bool {
		return name == "Options" || name == "Scale" || strings.HasSuffix(name, "Config") ||
			pkgDir == "xar/internal/core" && name == "Observers"
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

	// declared: "importpath.Struct" → field → declaring file. An
	// embedded struct is audited under its own name: the embedding field
	// has no name of its own.
	declared := map[string]map[string]string{}
	for _, pf := range files {
		if strings.HasSuffix(pf.name, "_test.go") {
			continue
		}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !isConfig(pf.pkgDir, ts.Name.Name) {
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
			declared[pf.pkgDir+"."+ts.Name.Name] = fields
			return false
		})
	}
	for _, want := range []string{"xar.Options", "xar/internal/core.Config", "xar/internal/core.Observers", "xar/internal/roadnet.CityConfig"} {
		if len(declared[want]) == 0 {
			t.Fatalf("struct %s not found: the audit's name match has gone stale", want)
		}
	}

	// setIn: field name → files with a literal key or an assignment
	// target of that name. byParam: field name → files that set it from
	// a parameter of the enclosing function.
	setIn := map[string]map[string]bool{}
	byParam := map[string]map[string]bool{}
	mark := func(m map[string]map[string]bool, field, file string) {
		if m[field] == nil {
			m[field] = map[string]bool{}
		}
		m[field][file] = true
	}
	for _, pf := range files {
		for _, decl := range pf.file.Decls {
			params := map[string]bool{}
			if fd, ok := decl.(*ast.FuncDecl); ok {
				for _, fl := range fd.Type.Params.List {
					for _, id := range fl.Names {
						params[id.Name] = true
					}
				}
			}
			fromParam := func(field string, v ast.Expr) {
				if id, ok := v.(*ast.Ident); ok && params[id.Name] {
					mark(byParam, field, pf.name)
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if k, ok := n.Key.(*ast.Ident); ok {
						mark(setIn, k.Name, pf.name)
						fromParam(k.Name, n.Value)
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							mark(setIn, sel.Sel.Name, pf.name)
							if len(n.Rhs) == len(n.Lhs) {
								fromParam(sel.Sel.Name, n.Rhs[i])
							}
						}
					}
				}
				return true
			})
		}
	}

	var dead []string
	for typ, fields := range declared {
		for f, declaredIn := range fields {
			others := len(setIn[f])
			if setIn[f][declaredIn] {
				others--
			}
			if others == 0 && !byParam[f][declaredIn] {
				dead = append(dead, strings.TrimPrefix(typ, "xar/internal/")+"."+f)
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: no file outside its declaring one sets it, nor does a constructor parameter — make it a constant", d)
	}
}
