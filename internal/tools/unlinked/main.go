// Command unlinked lists the module's non-test functions that no program
// links, with file, line and length, and exits 1 if one spans maxLines
// lines or more. It builds every main package of the module and of the
// modules one directory down (the benchmark's), itself included, with
// inlining off, so that a function inlined at every call site still
// leaves a symbol. Run it from the repository root:
// go run ./internal/tools/unlinked
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

// maxLines is the length from which an unlinked function fails the run.
const maxLines = 20

func main() {
	long, err := run(".", os.Stdout)
	if err == nil && long > 0 {
		err = fmt.Errorf("%d functions of %d lines or more that no program links: move them into tests or delete them", long, maxLines)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "unlinked:", err)
		os.Exit(1)
	}
}

// run reports the unlinked functions under root; it returns how many are long.
func run(root string, w io.Writer) (int, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return 0, err
	}
	nested, _ := filepath.Glob(filepath.Join(root, "*", "go.mod")) // the benchmark's module; a fixed pattern cannot fail
	modules := []string{root}
	for _, m := range nested {
		modules = append(modules, filepath.Dir(m))
	}
	bin := filepath.Join(os.TempDir(), fmt.Sprintf("unlinked-%d", os.Getpid()))
	defer os.Remove(bin)
	linked := map[string]bool{}
	var pkgs [][]string // the root module's packages: name, import path, directory, files
	for _, mod := range modules {
		list, err := goCmd(mod, "list", "-f", "{{.Name}}\t{{.ImportPath}}\t{{.Dir}}{{range .GoFiles}}\t{{.}}{{end}}", "./...")
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(strings.TrimSpace(string(list)), "\n") {
			pkg := strings.Split(line, "\t")
			if mod == root {
				pkgs = append(pkgs, pkg)
			}
			if pkg[0] != "main" {
				continue
			}
			if _, err := goCmd(pkg[2], "build", "-trimpath", "-buildvcs=false", "-gcflags=all=-l", "-o", bin, "."); err != nil {
				return 0, err
			}
			nm, err := goCmd(pkg[2], "tool", "nm", bin)
			if err != nil {
				return 0, err
			}
			for _, s := range nmText.FindAllStringSubmatch(string(nm), -1) {
				if rest, ok := strings.CutPrefix(s[1], "main."); ok {
					s[1] = pkg[1] + "." + rest // main's symbols, under the import path its functions are listed by
				}
				linked[symName(s[1])] = true
			}
		}
	}

	var n, lines, long int
	fset := token.NewFileSet()
	for _, pkg := range pkgs {
		for _, file := range pkg[3:] {
			f, err := parser.ParseFile(fset, filepath.Join(pkg[2], file), nil, parser.SkipObjectResolution)
			if err != nil {
				return 0, err
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || linked[declSym(pkg[1], fd)] {
					continue
				}
				pos := fset.Position(fd.Pos())
				size := fset.Position(fd.End()).Line - pos.Line + 1
				fmt.Fprintf(w, "%s:%d: %s (%d lines)\n", strings.TrimPrefix(pos.Filename, root+string(filepath.Separator)), pos.Line, declSym(pkg[1], fd), size)
				n, lines = n+1, lines+size
				if size >= maxLines {
					long++
				}
			}
		}
	}
	fmt.Fprintf(w, "%d unlinked functions, %d lines; %d of %d lines or more\n", n, lines, long, maxLines)
	return long, nil
}

// goCmd runs the go command in dir and returns what it writes to stdout.
func goCmd(dir string, args ...string) ([]byte, error) {
	c := exec.Command("go", args...)
	c.Dir = dir
	out, err := c.Output()
	if e, ok := err.(*exec.ExitError); ok {
		err = fmt.Errorf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, e.Stderr)
	}
	return out, err
}

// declSym returns the symbol that function fd of package path links
// as, in symName's form: "path.F", "path.T.M" or "path.(*T).M".
func declSym(path string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return path + "." + fd.Name.Name
	}
	recv := types.ExprString(fd.Recv.List[0].Type)
	if recv[0] == '*' {
		recv = "(" + recv + ")"
	}
	return symName(path + "." + recv + "." + fd.Name.Name)
}

// nmText matches the text symbols of go tool nm's output (address, type
// T or t, name); typeArgs an innermost bracketed list of type arguments;
// initSuffix the number the compiler gives each init function.
var (
	nmText     = regexp.MustCompile(`(?m)^ *[0-9a-f]+ [Tt] (.+)$`)
	typeArgs   = regexp.MustCompile(`\[[^][]*\]`)
	initSuffix = regexp.MustCompile(`\.init\.\d+$`)
)

// symName drops the type arguments from a symbol, innermost first, so
// that every instance of a generic function or method names its
// declaration, and folds the numbered init functions into "path.init".
func symName(sym string) string {
	for prev := ""; prev != sym; {
		prev, sym = sym, typeArgs.ReplaceAllString(sym, "")
	}
	return initSuffix.ReplaceAllString(sym, ".init")
}
