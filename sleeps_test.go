package brokerset

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptSleeps is the allow-list of TestNoNewSleepsInTests: the top-level
// functions in _test.go files under internal/ that still call time.Sleep,
// how many times, and why each is not (yet) an event wait or an injected
// clock. The list only shrinks: ROADMAP item 7's single scheduler is what
// closes the entries that pace a poll or model a slow peer.
var keptSleeps = map[string]struct {
	calls int
	why   string
}{
	"internal/workload/workload_test.go:fakeTarget.Query":                 {1, "gives the fake target a service time so the closed-loop runner's workers overlap; asserts counts, not durations"},
	"internal/queryplane/queryplane_test.go:TestQueryShedding":            {1, "paces a poll on the shed counter while the one compute is blocked on a channel"},
	"internal/queryplane/queryplane_test.go:TestQueryParallelConsistency": {1, "spreads 50 generation bumps over the readers' run; asserts consistency of each answer, not timing"},
}

// TestNoNewSleepsInTests is ROADMAP item 12's ratchet: a test that waits on
// the wall clock passes on an idle box and fails under `go test ./...`, so a
// _test.go under internal/ may call time.Sleep only where keptSleeps says
// why. The scan is syntactic (go/parser): calls of Sleep on whatever name
// the file imports "time" under, counted per enclosing top-level function.
func TestNoNewSleepsInTests(t *testing.T) {
	found := make(map[string]int)
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		timeName := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"time"` {
				timeName = "time"
				if imp.Name != nil {
					timeName = imp.Name.Name
				}
			}
		}
		if timeName == "" {
			return nil
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sleep" {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == timeName {
						found[filepath.ToSlash(path)+":"+name]++
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var problems []string
	for where, calls := range found {
		switch kept, ok := keptSleeps[where]; {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s calls time.Sleep %d time(s): wait on the event, or add it to keptSleeps with a reason", where, calls))
		case calls > kept.calls:
			problems = append(problems, fmt.Sprintf("%s calls time.Sleep %d times, keptSleeps allows %d", where, calls, kept.calls))
		}
	}
	for where, kept := range keptSleeps {
		if found[where] < kept.calls {
			problems = append(problems, fmt.Sprintf("keptSleeps allows %s %d call(s) but it makes %d: tighten the entry", where, kept.calls, found[where]))
		}
		if kept.why == "" {
			problems = append(problems, fmt.Sprintf("keptSleeps entry %s gives no reason", where))
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}
