// Package srclint is the source-level sibling of package check: where check
// verifies the compiler's *artifacts* (graphs, schedules, microcode),
// srclint verifies the *Go source* of the system layer against the
// repository's own cross-cutting conventions — conventions the stock vet
// passes and the race detector cannot see.
//
// It is a small multi-pass analysis driver over go/ast + go/types (standard
// library only, intra-procedural dataflow). The passes:
//
//   - maprange: order-sensitive work inside `for ... range someMap` bodies
//     (ordered output, unsorted appends, floating-point accumulation) —
//     run-to-run nondeterminism that breaks bit-reproducibility.
//   - poollife: lifecycle of pooled buffers (cosmicnet.GetPayload /
//     sync.Pool Get) — use-after-Put, double-Put, unannotated ownership
//     escapes, and Get paths that never Put.
//   - lockcheck: mutex Lock without Unlock on some return path
//     (defer-aware), double-Lock of the same mutex in one function, and
//     goroutine launches in the runtime/obs packages that capture loop
//     variables or have no shutdown edge.
//   - wireflag: the cosmicnet wire-flag registry — extension bits must be
//     declared once, non-overlapping, handled in both the encode and decode
//     paths, and never appear as raw literals outside the registry.
//
// Annotation convention (a comment on the flagged line or the line above):
//
//   - //cosmic:ordered    — map iteration order is provably irrelevant here
//   - //cosmic:owns       — this function returns/holds a pooled buffer it
//     legitimately owns; callers inherit the Put obligation
//   - //cosmic:transfers  — buffer ownership moves at this statement (ring
//     hand-off, parked copy, struct store); the Put obligation moves with it
//   - //cosmic:shutdown   — this goroutine's termination is managed
//     elsewhere (stated explicitly, e.g. "closed by Close")
//
// All analysis is intra-procedural and best-effort under degraded type
// information (unresolvable imports fall back to syntactic heuristics); the
// passes prefer silence over false positives and the annotations make the
// deliberate ownership handoffs explicit at the source.
package srclint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Severity classifies a diagnostic: errors are definite convention
// violations, warnings are heuristic findings (the intra-procedural
// approximations documented per pass).
type Severity string

// Severity levels.
const (
	SeverityError   Severity = "error"
	SeverityWarning Severity = "warning"
)

// Diagnostic is one finding, locatable and machine-readable.
type Diagnostic struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Pass     string   `json:"pass"`
	Severity Severity `json:"severity"`
	Message  string   `json:"message"`
}

// String renders the diagnostic in the classic compiler format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Pass, d.Message)
}

// Package is one parsed, best-effort type-checked package handed to passes.
type Package struct {
	Fset  *token.FileSet
	Info  *types.Info
	Files []*ast.File
	// Dir is the directory the files came from; Name the package clause.
	Dir, Name string
}

// Pass is one analyzer.
type Pass struct {
	Name string
	Doc  string
	Run  func(p *Package) []Diagnostic
}

// Passes returns every analyzer in fixed order.
func Passes() []Pass {
	return []Pass{
		{Name: "maprange", Doc: "order-sensitive work inside map range loops", Run: runMapRange},
		{Name: "poollife", Doc: "pooled-buffer lifecycle (use-after-put, double-put, leaks, escapes)", Run: runPoolLife},
		{Name: "lockcheck", Doc: "mutex pairing and goroutine hygiene", Run: runLockCheck},
		{Name: "wireflag", Doc: "wire-flag registry consistency", Run: runWireFlag},
	}
}

// SelectPasses resolves comma-separated pass names ("" selects all).
func SelectPasses(names string) ([]Pass, error) {
	all := Passes()
	if names == "" {
		return all, nil
	}
	byName := map[string]Pass{}
	for _, p := range all {
		byName[p.Name] = p
	}
	var out []Pass
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		p, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown pass %q", n)
		}
		out = append(out, p)
	}
	return out, nil
}

// LintDirs parses and lints every directory with the given passes.
// Per-package parse errors become "parse" diagnostics — the run continues
// over the remaining files and directories, so one broken package cannot
// mask findings elsewhere. The returned diagnostics are in the stable
// (file, line, col, pass, message) order.
func LintDirs(dirs []string, passes []Pass) []Diagnostic {
	shared.Lock()
	defer shared.Unlock()
	if shared.fset == nil {
		shared.fset = token.NewFileSet()
		shared.imp = importer.ForCompiler(shared.fset, "source", nil)
	}
	var out []Diagnostic
	for _, dir := range dirs {
		out = append(out, lintDir(shared.fset, shared.imp, dir, passes)...)
	}
	Sort(out)
	return out
}

// shared is the one file set and source importer every lint in the process
// uses, so the standard library is type-checked once per process, not once
// per directory or call. The source importer is not safe for concurrent
// use; the mutex guards both.
var shared struct {
	sync.Mutex
	fset *token.FileSet
	imp  types.Importer
}

// LintDir parses every Go file in dir (tests included), groups files by
// package clause, type-checks best-effort, and runs the passes.
func LintDir(dir string, passes []Pass) []Diagnostic {
	return LintDirs([]string{dir}, passes)
}

func lintDir(fset *token.FileSet, imp types.Importer, dir string, passes []Pass) []Diagnostic {
	var out []Diagnostic
	entries, err := os.ReadDir(dir)
	if err != nil {
		return []Diagnostic{parseDiag(dir, 0, 0, err.Error())}
	}
	pkgs := map[string][]*ast.File{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			out = append(out, parseErrDiags(path, err)...)
			if f == nil {
				continue
			}
		}
		pkgs[f.Name.Name] = append(pkgs[f.Name.Name], f)
	}
	names := make([]string, 0, len(pkgs))
	for n := range pkgs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := &Package{
			Fset:  fset,
			Info:  typeCheck(fset, imp, dir, pkgs[n]),
			Files: pkgs[n],
			Dir:   dir,
			Name:  n,
		}
		for _, pass := range passes {
			out = append(out, pass.Run(p)...)
		}
	}
	Sort(out)
	return out
}

// parseErrDiags converts a parse failure into diagnostics, one per scanner
// error when available.
func parseErrDiags(path string, err error) []Diagnostic {
	if list, ok := err.(scanner.ErrorList); ok {
		out := make([]Diagnostic, 0, len(list))
		for _, e := range list {
			out = append(out, parseDiag(e.Pos.Filename, e.Pos.Line, e.Pos.Column, e.Msg))
		}
		return out
	}
	return []Diagnostic{parseDiag(path, 0, 0, err.Error())}
}

func parseDiag(file string, line, col int, msg string) Diagnostic {
	return Diagnostic{File: file, Line: line, Col: col, Pass: "parse", Severity: SeverityError, Message: msg}
}

// Sort orders diagnostics by (file, line, col, pass, message) so repeated
// runs and CI diffs are deterministic.
func Sort(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
}

// WriteJSON emits the diagnostics as a JSON array (never null), one object
// per finding, in the already-sorted order.
func WriteJSON(w io.Writer, ds []Diagnostic) error {
	if ds == nil {
		ds = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ds)
}

// HasErrors reports whether any diagnostic is severity error.
func HasErrors(ds []Diagnostic) bool {
	for _, d := range ds {
		if d.Severity == SeverityError {
			return true
		}
	}
	return false
}

// ExpandPatterns resolves package patterns ("dir/..." recursive, plain
// directory otherwise) into a deduplicated, sorted directory list.
// Unwalkable patterns are reported as parse diagnostics, not fatal errors.
func ExpandPatterns(patterns []string) ([]string, []Diagnostic) {
	var dirs []string
	var diags []Diagnostic
	seen := map[string]bool{}
	for _, pat := range patterns {
		expanded, err := expandPattern(pat)
		if err != nil {
			diags = append(diags, parseDiag(pat, 0, 0, err.Error()))
			continue
		}
		for _, d := range expanded {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	sort.Strings(dirs)
	return dirs, diags
}

func expandPattern(pat string) ([]string, error) {
	root, recursive := strings.CutSuffix(pat, "/...")
	if root == "" || root == "." {
		root = "."
	}
	if !recursive {
		return []string{filepath.Clean(pat)}, nil
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, filepath.Clean(path))
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// typeCheck type-checks files best-effort: errors (including unresolvable
// imports) do not stop the analysis — whatever type information resolved is
// used, and the passes degrade to syntactic heuristics for the rest.
func typeCheck(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) *types.Info {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(error) {}, // collect what resolves, ignore the rest
	}
	conf.Check(path, fset, files, info) //nolint:errcheck // best-effort by design
	return info
}
