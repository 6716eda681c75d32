package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSymbolNames: a declaration and the symbol the linker gives it map
// to the same name, for every kind of function the module declares.
func TestSymbolNames(t *testing.T) {
	for _, tc := range []struct {
		decl, nm, want string
	}{
		{"func F() {}", "p/q.F", "p/q.F"},
		{"func (T) M() {}", "p/q.T.M", "p/q.T.M"},
		{"func (t *T) M() {}", "p/q.(*T).M", "p/q.(*T).M"},
		{"func (r *T[K]) M() {}", "p/q.(*T[go.shape.struct { A int; B []int }]).M", "p/q.(*T).M"},
		{"func (m Map[K, V]) Get(k K) V { return m[k] }", "p/q.Map[go.shape.int,go.shape.string].Get", "p/q.Map.Get"},
		{"func G[T any](v T) T { return v }", "p/q.G[go.shape.[]uint8]", "p/q.G"},
		{"func init() {}", "p/q.init.0", "p/q.init"},
	} {
		f, err := parser.ParseFile(token.NewFileSet(), "x.go", "package q\n"+tc.decl, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := declSym("p/q", f.Decls[0].(*ast.FuncDecl)); got != tc.want {
			t.Errorf("declSym(%q) = %q, want %q", tc.decl, got, tc.want)
		}
		if got := symName(tc.nm); got != tc.want {
			t.Errorf("symName(%q) = %q, want %q", tc.nm, got, tc.want)
		}
	}
}

// planted is a module whose package lib declares two functions that main
// never reaches, Planted long enough to fail the run, and every other
// kind of function reached.
var planted = map[string]string{
	"go.mod": "module planted\n\ngo 1.22\n",
	"main.go": `package main

import "planted/lib"

func main() {
	var r lib.Ring[int]
	r.Push(lib.Used())
	println(lib.Max(r.Len(), 2), lib.Ready)
}
`,
	"lib/lib.go": `package lib

var Ready bool

func init() { Ready = true }

func Used() int { return 1 }

type Ring[T any] struct{ buf []T }

func (r *Ring[T]) Push(v T) { r.buf = append(r.buf, v) }

func (r Ring[T]) Len() int { return len(r.buf) }

func Max[T int | float64](a, b T) T { return max(a, b) }

func Planted(xs []int) int {
	total := 0
	for _, x := range xs {
		switch {
		case x < 0:
			total -= x
		case x == 0:
			total++
		case x == 1:
			total += 2
		case x > 100:
			total += 100
		default:
			total += x
		}
	}
	if total > 1000 {
		return 1000
	}
	return total
}

func unused() int { return 2 }
`,
}

// TestReportsPlantedFunction builds the planted module and requires
// exactly its two unreached functions listed, and the long one to fail
// the run.
func TestReportsPlantedFunction(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a program")
	}
	root := t.TempDir()
	for name, src := range planted {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	long, err := run(root, &out)
	if err != nil {
		t.Fatal(err)
	}
	want := "lib/lib.go:17: planted/lib.Planted (21 lines)\n" +
		"lib/lib.go:39: planted/lib.unused (1 lines)\n" +
		"2 unlinked functions, 22 lines; 1 of 20 lines or more\n"
	if out.String() != want || long != 1 {
		t.Errorf("long = %d, output:\n%s\nwant 1, output:\n%s", long, out.String(), want)
	}
}
