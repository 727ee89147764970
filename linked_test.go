package brokerset

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unlinked is the allow-list of TestEveryInternalFuncIsLinked: funcs and
// methods under internal/ that no binary links, and exported types, consts
// and vars under internal/ that no non-test file refers to. Each reason
// starts with one of linkReasons.
var unlinked = map[string]string{
	"broker.GreedyMCBNaive":              "cross-package reference: BenchmarkGreedyNaive, the root CELF ablation",
	"broker.RepairWorkDone":              "cross-package reference: daemon's BenchmarkTable2ChurnPost reports the repair's work per post",
	"coverage.VerifyDominated":           "cross-package reference: routing's TestEngineOnInternetTopology checks served paths with it",
	"ctrlplane.DecodeMessage":            "reserved by ROADMAP item 29: the bus that carries encoded frames",
	"ctrlplane.FaultTransport.Partition": "cross-package test fixture: federation/chaos_test.go and its siblings cut the peer bus with it",
	"ctrlplane.Message.Encode":           "reserved by ROADMAP item 29: the bus that carries encoded frames",
	"ctrlplane.Plane.Available":          "cross-package test fixture: federation/federation_test.go reads a region's residuals",
	"ctrlplane.Plane.UseTransport":       "cross-package test fixture: daemon/epoch_test.go taps the bus through it",
	"experiments.Suite.K100":             "cross-package reference: the root benchmarks in bench_test.go size themselves with it",
	"experiments.Suite.K1000":            "cross-package reference: the root benchmarks in bench_test.go size themselves with it",
	"federation.Fabric.Heal":             "cross-package test fixture: daemon/federation_test.go heals the fabric directly",
	"graph.Builder.MustBuild":            "cross-package test fixture: hand-built graphs in most packages' tests",
	"routing.Metrics.Available":          "cross-package test fixture: ctrlplane/batch_test.go and queryplane/dominance_test.go read residuals",
	"routing.Metrics.SetCapacity":        "cross-package test fixture: handcrafted thin links in ctrlplane, churn and federation tests",
	"routing.Metrics.SetLatency":         "cross-package test fixture: handcrafted latencies in ctrlplane, churn and federation tests",
	"routing.Path.Hops":                  "cross-package test fixture: daemon/daemon_test.go reads a served path's length",
	"routing.View.Failed":                "cross-package test fixture: daemon/epoch_test.go and churn/livegraph_test.go read a snapshot's down-marks through it",
	"topology.RegionPartition.Touches":   "cross-package test fixture: federation/stitch_test.go walks a border's regions",
	"topology.Topology.SetRel":           "cross-package test fixture: hand-built relationship labels in most packages' tests",
}

// linkReasons are the only reasons an allow-list entry may give.
var linkReasons = []string{
	"cross-package test fixture: ", // followed by the test file that builds on it
	"cross-package reference: ",    // followed by the test that calls it
	"reserved by ROADMAP item ",    // followed by the item's number
}

// TestEveryInternalFuncIsLinked is the dead-code rule: a func or method
// declared in a non-test file under internal/ stays only if some binary of
// the module links it, or unlinked says why not. The evidence is the
// linker's: every main package is built with inlining off in module
// packages (so a small func keeps its own symbol), and the text symbols
// go tool nm lists are matched against a go/parser walk of the
// declarations. The linker keeps methods an interface might reach, so the
// rule under-reports, which is the safe side.
//
// The linker says nothing of types, consts and vars, so an exported one
// stays only if a non-test file refers to it by name (a bare identifier in
// its own package, a selector on the package's import name elsewhere).
func TestEveryInternalFuncIsLinked(t *testing.T) {
	files := parseNonTestFiles(t)
	linked := linkedSymbols(t)

	found := map[string]bool{}
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, decl := range f.ast.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || (d.Recv == nil && d.Name.Name == "init") {
				continue
			}
			if name := declName(d); !linked["brokerset/"+f.dir+"."+name] {
				found[f.pkg+"."+name] = true
			}
		}
	}
	for name := range unreferencedExports(files) {
		found[name] = true
	}

	var missing []string
	for name := range found {
		if unlinked[name] == "" {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%d name(s) under internal/ that no binary links (funcs) or no non-test file refers to (types, consts, vars); delete each, move it into its package's _test.go files, or give unlinked its reason:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
	for name, reason := range unlinked {
		if !found[name] {
			t.Errorf("unlinked lists %s, which is gone or is linked now: drop the entry", name)
		}
		if !hasLinkReason(reason) {
			t.Errorf("unlinked gives %s the reason %q, which starts with none of %q", name, reason, linkReasons)
		}
	}
}

func hasLinkReason(reason string) bool {
	for _, p := range linkReasons {
		if strings.HasPrefix(reason, p) && len(reason) > len(p) {
			return true
		}
	}
	return false
}

// linkedSymbols builds every main package of the module into one temporary
// directory and returns the union of their brokerset/internal/ text
// symbols, each normalised by linkedName.
func linkedSymbols(t *testing.T) map[string]bool {
	t.Helper()
	list, err := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	mains := strings.Fields(string(list))
	if len(mains) == 0 {
		t.Fatal("go list found no main package")
	}
	dir := t.TempDir()
	build := exec.Command("go", append([]string{"build", "-gcflags=brokerset/...=-l", "-o", dir + string(filepath.Separator)}, mains...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bins, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(bins) != len(mains) {
		t.Fatalf("built %d binaries for %d main packages (%v)", len(bins), len(mains), err)
	}
	var stderr bytes.Buffer
	nm := exec.Command("go", append([]string{"tool", "nm"}, bins...)...)
	nm.Stderr = &stderr
	out, err := nm.Output()
	if err != nil {
		t.Fatalf("go tool nm: %v\n%s", err, stderr.Bytes())
	}
	linked := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		// "[file:] addr T name"; the name may hold spaces.
		fields := strings.Fields(sc.Text())
		for i := 1; i+1 < len(fields); i++ {
			if fields[i] == "T" || fields[i] == "t" {
				if name, ok := linkedName(strings.Join(fields[i+1:], " ")); ok {
					linked[name] = true
				}
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return linked
}

// linkedName maps a text symbol go tool nm prints to the declaration it is
// compiled from, as "brokerset/internal/pkg.Func" or
// "brokerset/internal/pkg.Type.Method", and reports false for a symbol
// outside brokerset/internal/. Bracketed instantiation suffixes go whatever
// they hold (a generic shape may name a struct with spaces and slashes), as
// do a pointer receiver's "(*…)", a method value's "-fm" and a closure's
// ".funcN"/".gowrapN"/".deferwrapN" tail.
func linkedName(sym string) (string, bool) {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	name := strings.TrimSuffix(b.String(), "-fm")
	if !strings.HasPrefix(name, "brokerset/internal/") {
		return "", false
	}
	slash := strings.LastIndexByte(name, '/')
	pkg, rest, _ := strings.Cut(name[slash+1:], ".")
	parts := strings.Split(strings.NewReplacer("(*", "", ")", "").Replace(rest), ".")
	n := 1
	if len(parts) > 1 && !closureElem.MatchString(parts[1]) {
		n = 2
	}
	return name[:slash+1] + pkg + "." + strings.Join(parts[:n], "."), true
}

// closureElem matches a symbol element that names a closure, a
// compiler-made wrapper or a numbered init rather than a method.
var closureElem = regexp.MustCompile(`^(func|gowrap|deferwrap)?[0-9]*$`)

type goFile struct {
	dir, pkg string
	ast      *ast.File
}

// parseNonTestFiles parses every non-test Go file of the module.
func parseNonTestFiles(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		files = append(files, goFile{dir: dir, pkg: dir[strings.LastIndex(dir, "/")+1:], ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// declName is a func declaration's name within its package: "Func" or
// "Type.Method", the receiver stripped of its pointer and type parameters.
func declName(d *ast.FuncDecl) string {
	if d.Recv == nil {
		return d.Name.Name
	}
	recv := d.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch r := recv.(type) {
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	return recv.(*ast.Ident).Name + "." + d.Name.Name
}

// unreferencedExports returns the exported types, consts and vars declared
// under internal/ that no non-test file refers to. The scan is syntactic: a
// name is referred to by a bare identifier in its own package or by a
// selector on the package's import name elsewhere.
func unreferencedExports(files []goFile) map[string]bool {
	type pkgName struct{ dir, name string }
	declared := map[pkgName]string{} // -> allow-list name
	declPos := map[token.Pos]bool{}
	for _, f := range files {
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				declPos[d.Name.Pos()] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var ids []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						ids = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						ids = s.Names
					}
					for _, id := range ids {
						declPos[id.Pos()] = true
						if id.IsExported() && strings.HasPrefix(f.dir, "internal/") {
							declared[pkgName{f.dir, id.Name}] = f.pkg + "." + id.Name
						}
					}
				}
			}
		}
	}

	used := map[pkgName]bool{}
	for _, f := range files {
		imports := map[string]string{} // local name -> package dir
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(p, "brokerset/")
			if !ok {
				continue
			}
			name := dir[strings.LastIndex(dir, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						used[pkgName{dir, n.Sel.Name}] = true
					}
				}
			case *ast.Ident:
				if !declPos[n.Pos()] {
					used[pkgName{f.dir, n.Name}] = true
				}
			}
			return true
		})
	}

	found := map[string]bool{}
	for k, name := range declared {
		if !used[k] {
			found[name] = true
		}
	}
	return found
}

// TestLinkedName pins the normaliser on names as go tool nm prints them.
func TestLinkedName(t *testing.T) {
	for _, c := range []struct{ sym, want string }{
		// A generic instantiation whose shape names a struct: spaces, slashes
		// and nested brackets all sit inside the suffix.
		{"brokerset/internal/ctrlplane.refill[go.shape.struct { ID int; Epoch uint32 },go.shape.[]brokerset/internal/ctrlplane.hold]", "brokerset/internal/ctrlplane.refill"},
		{"brokerset/internal/ctrlplane.refill[go.shape.struct { ID int; Epoch uint32 },go.shape.struct { brokerset/internal/ctrlplane.op brokerset/internal/ctrlplane.walOp; brokerset/internal/ctrlplane.at uint64 }]", "brokerset/internal/ctrlplane.refill"},
		{"brokerset/internal/broker.(*gainQueue).siftDown", "brokerset/internal/broker.gainQueue.siftDown"},
		{"brokerset/internal/broker.gainItem.less", "brokerset/internal/broker.gainItem.less"},
		{"brokerset/internal/broker.MaintainAvoiding.func1", "brokerset/internal/broker.MaintainAvoiding"},
		{"brokerset/internal/churn.(*Applier).Apply.func1", "brokerset/internal/churn.Applier.Apply"},
		{"brokerset/internal/churn.(*State).LinkDown-fm", "brokerset/internal/churn.State.LinkDown"},
		{"brokerset/internal/coverage.(*State).GainBatch.func1.deferwrap1", "brokerset/internal/coverage.State.GainBatch"},
		{"brokerset/internal/coverage.(*State).GainBatch.gowrap1", "brokerset/internal/coverage.State.GainBatch"},
		{"brokerset/internal/broker.init.func1", "brokerset/internal/broker.init"},
	} {
		if got, ok := linkedName(c.sym); !ok || got != c.want {
			t.Errorf("linkedName(%q) = %q, %v; want %q", c.sym, got, ok, c.want)
		}
	}
	for _, sym := range []string{
		"maps.Clone[go.shape.map[brokerset/internal/ctrlplane.sessKey]int,go.shape.struct { ID int; Epoch uint32 },go.shape.int]",
		"type:.eq.[1]brokerset/internal/ctrlplane.BatchEntry",
		"brokerset.(*Network).Maintain",
	} {
		if got, ok := linkedName(sym); ok {
			t.Errorf("linkedName(%q) = %q, want no module-internal name", sym, got)
		}
	}
}
