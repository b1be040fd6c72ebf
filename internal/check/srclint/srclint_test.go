package srclint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// lintSource runs the named passes over one in-memory file, type-checked
// best-effort against the real standard library.
func lintSource(t *testing.T, passNames, src string) []Diagnostic {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "lintme.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	passes, err := SelectPasses(passNames)
	if err != nil {
		t.Fatal(err)
	}
	return LintDir(dir, passes)
}

func wantFinding(t *testing.T, ds []Diagnostic, frag string) {
	t.Helper()
	for _, d := range ds {
		if strings.Contains(d.Message, frag) {
			return
		}
	}
	t.Errorf("no finding mentioning %q; got %d findings: %+v", frag, len(ds), ds)
}

func wantClean(t *testing.T, ds []Diagnostic) {
	t.Helper()
	if len(ds) != 0 {
		t.Errorf("want no findings, got %d: %+v", len(ds), ds)
	}
}

func TestSelectPasses(t *testing.T) {
	all, err := SelectPasses("")
	if err != nil || len(all) != len(Passes()) {
		t.Fatalf("SelectPasses(\"\") = %d passes, err %v", len(all), err)
	}
	two, err := SelectPasses("wireflag, maprange")
	if err != nil || len(two) != 2 || two[0].Name != "wireflag" || two[1].Name != "maprange" {
		t.Fatalf("SelectPasses order/content wrong: %+v, err %v", two, err)
	}
	if _, err := SelectPasses("nope"); err == nil {
		t.Fatal("unknown pass name accepted")
	}
}

// TestSortStable pins the (file, line, col, pass, message) diagnostic
// order that CI diffs and golden files rely on.
func TestSortStable(t *testing.T) {
	ds := []Diagnostic{
		{File: "b.go", Line: 1, Pass: "maprange"},
		{File: "a.go", Line: 9, Pass: "poollife"},
		{File: "a.go", Line: 2, Col: 5, Pass: "wireflag"},
		{File: "a.go", Line: 2, Col: 5, Pass: "lockcheck"},
		{File: "a.go", Line: 2, Col: 1, Pass: "wireflag"},
	}
	Sort(ds)
	var got []string
	for _, d := range ds {
		got = append(got, d.File+":"+d.Pass)
	}
	want := []string{"a.go:wireflag", "a.go:lockcheck", "a.go:wireflag", "a.go:poollife", "b.go:maprange"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestWriteJSON pins the machine-readable shape: an array (never null) of
// objects with the documented lowercase keys.
func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("empty diagnostics serialize as %q, want []", buf.String())
	}
	buf.Reset()
	ds := []Diagnostic{{File: "x.go", Line: 3, Col: 7, Pass: "poollife", Severity: SeverityError, Message: "boom"}}
	if err := WriteJSON(&buf, ds); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 {
		t.Fatalf("decoded %d entries, want 1", len(decoded))
	}
	for _, key := range []string{"file", "line", "col", "pass", "severity", "message"} {
		if _, ok := decoded[0][key]; !ok {
			t.Errorf("JSON object missing key %q: %v", key, decoded[0])
		}
	}
}

// TestParseErrorCollectAndContinue is the exit-code bugfix regression: a
// package that fails to parse becomes diagnostics, and the remaining
// directories are still analyzed.
func TestParseErrorCollectAndContinue(t *testing.T) {
	root := t.TempDir()
	broken := filepath.Join(root, "broken")
	good := filepath.Join(root, "good")
	for _, d := range []string{broken, good} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(broken, "bad.go"), []byte("package broken\nfunc {"), 0o644); err != nil {
		t.Fatal(err)
	}
	goodSrc := `package good

import "fmt"

func emit(m map[string]int) {
	for k := range m {
		fmt.Println(k)
	}
}
`
	if err := os.WriteFile(filepath.Join(good, "good.go"), []byte(goodSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	ds := LintDirs([]string{broken, good}, Passes())
	var parses, finds int
	for _, d := range ds {
		switch d.Pass {
		case "parse":
			parses++
		case "maprange":
			finds++
		}
	}
	if parses == 0 {
		t.Errorf("broken package produced no parse diagnostics: %+v", ds)
	}
	if finds == 0 {
		t.Errorf("analysis did not continue past the broken package: %+v", ds)
	}
}

// TestLintDirConcurrent: every lint in a process shares one file set and
// source importer, so concurrent calls must serialize on them and each
// return what a lone call does.
func TestLintDirConcurrent(t *testing.T) {
	dir := t.TempDir()
	src := `package p

import "fmt"

func emit(m map[string]int) {
	for k := range m {
		fmt.Println(k)
	}
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	want := LintDir(dir, Passes())
	if len(want) == 0 {
		t.Fatal("no findings to compare")
	}
	got := make([][]Diagnostic, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = LintDir(dir, Passes())
		}(i)
	}
	wg.Wait()
	for i, ds := range got {
		if !reflect.DeepEqual(ds, want) {
			t.Errorf("call %d: %+v, want %+v", i, ds, want)
		}
	}
}

// TestExpandPatterns checks recursive expansion skips testdata, vendor,
// and hidden directories.
func TestExpandPatterns(t *testing.T) {
	root := t.TempDir()
	mk := func(rel string) {
		dir := filepath.Join(root, filepath.Dir(rel))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, rel), []byte("package x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mk("a/a.go")
	mk("a/testdata/fixture.go")
	mk("b/vendor/v.go")
	mk("b/b.go")
	mk(".hidden/h.go")
	dirs, diags := ExpandPatterns([]string{root + "/..."})
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %+v", diags)
	}
	want := []string{filepath.Join(root, "a"), filepath.Join(root, "b")}
	if len(dirs) != len(want) {
		t.Fatalf("dirs = %v, want %v", dirs, want)
	}
	for i := range want {
		if dirs[i] != want[i] {
			t.Fatalf("dirs = %v, want %v", dirs, want)
		}
	}
	if _, diags := ExpandPatterns([]string{filepath.Join(root, "missing") + "/..."}); len(diags) == 0 {
		t.Error("unwalkable pattern produced no diagnostic")
	}
}
