package mlpa_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fuzzTargets returns every fuzz target of this module — a top-level
// func Fuzz… in a _test.go file — mapped to its package as `make fuzz`
// names it ("./internal/emu/"). Other modules (directories with their
// own go.mod), testdata and hidden directories are skipped.
func fuzzTargets(t *testing.T) map[string]string {
	t.Helper()
	targets := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				targets[fn.Name.Name] = "./" + filepath.ToSlash(filepath.Dir(path)) + "/"
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return targets
}

// listedTargets reads the (target, package) pairs re captures from
// file, failing on a target listed twice.
func listedTargets(t *testing.T, file string, re *regexp.Regexp) map[string]string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range re.FindAllStringSubmatch(string(data), -1) {
		if _, dup := out[m[1]]; dup {
			t.Errorf("%s lists %s twice", file, m[1])
		}
		out[m[1]] = m[2]
	}
	return out
}

// TestFuzzTargetsListed: `make fuzz` and the fuzz matrix of CI's
// workflow each list exactly the tree's fuzz targets, each with its
// package, so a new target cannot be left out of either.
func TestFuzzTargetsListed(t *testing.T) {
	want := fuzzTargets(t)
	if len(want) == 0 {
		t.Fatal("found no fuzz targets")
	}
	lists := map[string]map[string]string{
		"Makefile": listedTargets(t, "Makefile",
			regexp.MustCompile(`(?m)^\t\$\(GO\) test -fuzz=(\w+) -fuzztime=\S+ (\S+)$`)),
		".github/workflows/ci.yml": listedTargets(t, ".github/workflows/ci.yml",
			regexp.MustCompile(`(?m)^\s*- target: (\w+)\n\s*package: (\S+)$`)),
	}
	for file, got := range lists {
		for _, name := range sortedKeys(want) {
			switch pkg, ok := got[name]; {
			case !ok:
				t.Errorf("%s does not list fuzz target %s (%s)", file, name, want[name])
			case pkg != want[name]:
				t.Errorf("%s lists %s in %s, but it is in %s", file, name, pkg, want[name])
			}
		}
		for _, name := range sortedKeys(got) {
			if _, ok := want[name]; !ok {
				t.Errorf("%s lists %s, which is not a fuzz target in the tree", file, name)
			}
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
