// Consistency checks between the code and what the repository states
// about its benchmarks and tools: every benchmark or test name a
// Makefile or CI pattern passes to `go test` exists, every cmd tool and
// every flag a documented command hands one exists, the endpoint tables
// of OBSERVABILITY.md and README.md name the server's routes, and
// OBSERVABILITY.md's overhead budgets are BenchmarkSearchObservers'
// own. Each would otherwise go stale silently.
package xar

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestBenchPatternsNameRealBenchmarks: every `|` alternative of every
// -bench and -run pattern that the Makefile and the CI workflow pass to
// `go test … .` must match a Benchmark or Test func of this package.
// `go test` runs whatever matches and says nothing about an
// alternative that matches nothing, so a renamed benchmark would
// otherwise drop out of a smoke run unnoticed.
func TestBenchPatternsNameRealBenchmarks(t *testing.T) {
	var funcs []string
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs = append(funcs, fn.Name.Name)
			}
		}
	}
	flagRE := regexp.MustCompile(`-(bench|run) '([^']*)'`)
	checked := 0
	for _, file := range []string{"Makefile", ".github/workflows/ci.yml"} {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if !strings.Contains(line, " test ") || !strings.HasSuffix(line, " .") {
				continue // not a `go test` of this package
			}
			line = strings.ReplaceAll(line, "$$", "$") // make's escape; no-op in YAML
			for _, m := range flagRE.FindAllStringSubmatch(line, -1) {
				prefix := map[string]string{"bench": "Benchmark", "run": "Test"}[m[1]]
				for _, alt := range splitTopLevel(m[2], '|') {
					if alt == "^$" {
						continue
					}
					re, err := regexp.Compile(splitTopLevel(alt, '/')[0])
					if err != nil {
						t.Errorf("%s:%d: -%s alternative %q: %v", file, n+1, m[1], alt, err)
						continue
					}
					found := false
					for _, f := range funcs {
						found = found || strings.HasPrefix(f, prefix) && re.MatchString(f)
					}
					if !found {
						t.Errorf("%s:%d: -%s alternative %q matches no %s func of package xar", file, n+1, m[1], alt, prefix)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -bench or -run pattern found to check")
	}
}

// splitTopLevel splits a pattern at every sep outside brackets and
// parentheses, the way `go test` splits -bench and -run patterns into
// alternatives (|) and sub-benchmark levels (/).
func splitTopLevel(pattern string, sep byte) []string {
	var parts []string
	depth, class, start := 0, false, 0
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '\\':
			i++
		case class:
			class = c != ']'
		case c == '[':
			class = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == sep && depth == 0:
			parts = append(parts, pattern[start:i])
			start = i + 1
		}
	}
	return append(parts, pattern[start:])
}

// TestOverheadBudgetsTableMatchesArms: every row of OBSERVABILITY.md's
// "Overhead budgets" table names an arm of BenchmarkSearchObservers
// with that arm's baseline and budget, and every budgeted arm has a
// row, so the documented budgets are the ones the smoke fence applies.
func TestOverheadBudgetsTableMatchesArms(t *testing.T) {
	raw, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Overhead budgets\n")
	if !ok {
		t.Fatal(`OBSERVABILITY.md has no "## Overhead budgets" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	arms := map[string]observerArm{}
	for _, arm := range observerArms {
		arms[arm.name] = arm
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.Trim(line, "| "), "|")
		if len(cells) != 4 || !strings.HasPrefix(strings.TrimSpace(cells[0]), "`") {
			continue // not a data row of the Arm | Observer | Baseline | Budget table
		}
		name := strings.Trim(strings.TrimSpace(cells[0]), "`")
		baseline := strings.Trim(strings.TrimSpace(cells[2]), "`")
		budget, err := parseBudget(strings.TrimSpace(cells[3]))
		if err != nil {
			t.Errorf("row %s: %v", name, err)
			continue
		}
		rows[name] = true
		arm, ok := arms[name]
		switch {
		case !ok:
			t.Errorf("row %s names no arm of BenchmarkSearchObservers", name)
		case arm.baseline != baseline || math.Abs(arm.budget-budget) > 1e-9:
			t.Errorf("row %s reads %.2f over %s; the arm is %.2f over %s", name, budget, baseline, arm.budget, arm.baseline)
		}
	}
	for _, arm := range observerArms {
		if arm.budget > 0 && !rows[arm.name] {
			t.Errorf("arm %s (%.2f over %s) has no row in the Overhead budgets table", arm.name, arm.budget, arm.baseline)
		}
	}
}

// parseBudget reads a budget cell: "≤5%" is a 1.05 ratio, "≤3.5×" a 3.5 one.
func parseBudget(cell string) (float64, error) {
	s := strings.TrimPrefix(cell, "≤")
	if v, ok := strings.CutSuffix(s, "%"); ok {
		f, err := strconv.ParseFloat(v, 64)
		return 1 + f/100, err
	}
	if v, ok := strings.CutSuffix(s, "×"); ok {
		return strconv.ParseFloat(v, 64)
	}
	return 0, fmt.Errorf("budget %q is neither ≤N%% nor ≤N×", cell)
}

// TestCmdFlagsInDocsExist: every cmd tool a command line of the
// Makefile, the CI workflow, README.md or the verify skill cites as
// `./cmd/<tool>` has a directory, and every flag such a line hands a
// tool — `go run ./cmd/<tool> -flag …` or `<tool> -flag …` — is one that
// tool's main registers. The flag package rejects an unknown flag only
// when the command runs, and nothing runs the docs.
func TestCmdFlagsInDocsExist(t *testing.T) {
	registers := map[string]bool{"String": true, "Int": true, "Bool": true, "Float64": true, "Int64": true, "Duration": true}
	dirs, err := filepath.Glob("cmd/*")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no cmd tools found: %v", err)
	}
	tools := map[string]map[string]bool{}
	var names []string
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		flags := map[string]bool{}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !registers[sel.Sel.Name] {
					return true
				}
				pkg, ok := sel.X.(*ast.Ident)
				lit, isLit := call.Args[0].(*ast.BasicLit)
				if ok && pkg.Name == "flag" && isLit && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					flags[name] = true
				}
				return true
			})
		}
		if len(flags) == 0 {
			t.Fatalf("%s registers no flags: the parse is broken", dir)
		}
		flags["h"], flags["help"] = true, true // the flag package's own
		tools[filepath.Base(dir)] = flags
		names = append(names, filepath.Base(dir))
	}
	// A tool name, then its arguments up to whatever ends a shell
	// command (pipe, list, redirect, comment) or the code span.
	toolRE := regexp.MustCompile("(?:^|[\\s/])(" + strings.Join(names, "|") + ")\\b((?:[ \\t]+[^\\s|;&>#`]+)*)")
	flagRE := regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9_-]*)`)
	dirRE := regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?cmd/([\w-]+)`)
	checked := 0
	for _, file := range []string{"Makefile", ".github/workflows/ci.yml", "README.md", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range commandChunks(file, string(raw)) {
			for _, m := range dirRE.FindAllStringSubmatch(c.code, -1) {
				if tools[m[1]] == nil {
					t.Errorf("%s:%d: cites cmd/%s, which has no directory (%q)", file, c.line, m[1], strings.TrimSpace(c.code))
				}
			}
			for _, m := range toolRE.FindAllStringSubmatch(c.code, -1) {
				for _, tok := range strings.Fields(m[2]) {
					f := flagRE.FindStringSubmatch(tok)
					if f == nil {
						continue
					}
					checked++
					if !tools[m[1]][f[1]] {
						t.Errorf("%s:%d: %s registers no -%s flag (%q)", file, c.line, m[1], f[1], m[1]+m[2])
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no documented cmd flag found to check")
	}
}

// codeChunk is one piece of a document that is shown as a command.
type codeChunk struct {
	line int
	code string
}

// commandChunks returns what a document shows as commands, each with the
// line it starts on: every non-comment line of a Makefile or workflow,
// and every fenced-block line and inline code span of a Markdown file. A
// backslash-continued line is joined to the lines it continues into.
func commandChunks(name, text string) []codeChunk {
	md := strings.HasSuffix(name, ".md")
	lines := strings.Split(text, "\n")
	var out []codeChunk
	fenced := false
	for i := 0; i < len(lines); i++ {
		if md && strings.HasPrefix(strings.TrimSpace(lines[i]), "```") {
			fenced = !fenced
			lines[i] = ""
			continue
		}
		if md && !fenced {
			continue // prose: only its code spans count, below
		}
		start, code := i, lines[i]
		lines[i] = ""
		for strings.HasSuffix(code, "\\") && i+1 < len(lines) {
			i++
			code = strings.TrimSuffix(code, "\\") + " " + lines[i]
			lines[i] = ""
		}
		if !strings.HasPrefix(strings.TrimSpace(code), "#") {
			out = append(out, codeChunk{start + 1, code})
		}
	}
	if md {
		prose := strings.Join(lines, "\n") // fenced lines blanked, numbering kept
		for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatchIndex(prose, -1) {
			out = append(out, codeChunk{strings.Count(prose[:m[0]], "\n") + 1, strings.ReplaceAll(prose[m[2]:m[3]], "\n", " ")})
		}
	}
	return out
}

// TestObservabilityRoutesMatchServer: OBSERVABILITY.md's Endpoints
// table names exactly the server's GET routes, save the two ride reads
// (/v1/rides/{id} and its /route) that serve clients rather than
// operators, and every row of README.md's table is a route the server
// has. The routes are read off internal/server/server.go's handle("…")
// calls.
func TestObservabilityRoutesMatchServer(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "internal/server/server.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	routes := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn, ok := call.Fun.(*ast.Ident)
		lit, isLit := call.Args[0].(*ast.BasicLit)
		if ok && fn.Name == "handle" && isLit && lit.Kind == token.STRING {
			pattern, _ := strconv.Unquote(lit.Value)
			routes[pattern] = true
		}
		return true
	})
	if len(routes) == 0 {
		t.Fatal(`no handle("…") route found in internal/server/server.go: the parse is broken`)
	}
	rowRE := regexp.MustCompile("(?m)^\\| `((?:GET|POST|DELETE) /[^`]*)` \\|")
	rows := func(file, section string) map[string]bool {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		if section != "" {
			_, after, ok := strings.Cut(text, "\n## "+section+"\n")
			if !ok {
				t.Fatalf("%s has no %q section", file, section)
			}
			text, _, _ = strings.Cut(after, "\n## ")
		}
		out := map[string]bool{}
		for _, m := range rowRE.FindAllStringSubmatch(text, -1) {
			out[m[1]] = true
		}
		if len(out) == 0 {
			t.Fatalf("%s: no endpoint rows found", file)
		}
		return out
	}

	obs := rows("OBSERVABILITY.md", "Endpoints")
	for r := range routes {
		if strings.HasPrefix(r, "GET ") && r != "GET /v1/rides/{id}" && r != "GET /v1/rides/{id}/route" && !obs[r] {
			t.Errorf("OBSERVABILITY.md's Endpoints table lacks the server's %s", r)
		}
	}
	for r := range obs {
		if !routes[r] {
			t.Errorf("OBSERVABILITY.md's Endpoints table names %s, which the server does not route", r)
		}
	}
	for r := range rows("README.md", "") {
		if !routes[r] {
			t.Errorf("README.md's endpoint table names %s, which the server does not route", r)
		}
	}
}
