package brokerset

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptExports is the allow-list of TestExportsHaveANonTestReference: exported
// names under internal/ that no non-test file refers to, and the one reason
// each stays (the classes PR 24 settled on: a reference implementation tests
// compare production code against, a fixture tests in other packages build
// on, a state accessor a surviving test reads, an interface method nothing
// calls by name, or a name a ROADMAP item has reserved).
var keptExports = map[string]string{
	"broker.ApproxMCBG":                    "reference implementation: the paper's Algorithm 2 at a fixed depth; the serving code runs ApproxMCBGAdaptive",
	"broker.ExactMCBG":                     "reference implementation: the exact small-instance answer the heuristics are tested against",
	"broker.ExactMaxMCB":                   "reference implementation: the exact small-instance answer the heuristics are tested against",
	"broker.ExactMinPDS":                   "reference implementation: the exact small-instance answer the heuristics are tested against",
	"broker.GreedyMCBNaive":                "reference implementation: what CELF is tested against, and the root CELF ablation bench (ROADMAP 10c)",
	"churn.Applier.Applied":                "state accessor a surviving test reads",
	"churn.Applier.TotalApplied":           "state accessor a surviving test reads",
	"churn.Event.MarshalJSON":              "interface method (json.Marshaler): POST /churn bodies",
	"churn.Event.UnmarshalJSON":            "interface method (json.Unmarshaler): POST /churn bodies",
	"churn.State.DownLinks":                "state accessor a surviving test reads",
	"churn.State.DownNodes":                "state accessor a surviving test reads",
	"coverage.Incremental.ConnectedPairs":  "state accessor a surviving test reads",
	"coverage.VerifyDominated":             "reference implementation: the domination check served paths are tested with",
	"ctrlplane.DecodeMessage":              "wire codec: TestOneProtocolOnTheWire and the fuzzers decode with it; reserved for the HTTP peer bus (ROADMAP 5b)",
	"ctrlplane.FaultTransport.Partitioned": "state accessor a surviving test reads",
	"ctrlplane.Plane.UseTransport":         "cross-package test fixture: taps, slow peers and seeded faults go in through it",
	"econ.IsSuperadditive":                 "paper §7 game property (all of internal/econ is kept on purpose)",
	"econ.IsSupermodular":                  "paper §7 game property (all of internal/econ is kept on purpose)",
	"econ.Tatonnement":                     "paper §7 price dynamics (all of internal/econ is kept on purpose)",
	"experiments.Suite.GreedyOrder":        "cross-package test fixture: the root benches warm the suite with it",
	"experiments.Suite.K100":               "cross-package test fixture: the root benches size themselves with it",
	"experiments.Suite.K1000":              "cross-package test fixture: the root benches size themselves with it",
	"federation.Fabric.PeerBorderDown":     "state accessor a surviving test reads: a region's gossip-fed view of a peer's border",
	"federation.Fabric.PeerDigest":         "state accessor a surviving test reads: a region's gossip-fed view of a peer",
	"federation.Fabric.PeerTransport":      "cross-package test fixture: chaos harnesses partition the peer bus through it",
	"federation.ShedError.Unwrap":          "interface method (errors.Is reaches queryplane.ErrShed through it)",
	"graph.BFS.RunMultiSource":             "reference implementation: what the bit-parallel flood is tested against",
	"graph.Builder.MustBuild":              "cross-package test fixture: hand-built graphs",
	"market.Record.Share":                  "state accessor a surviving test reads",
	"market.Simulate":                      "scenario reference: CI's bitwise ledger-determinism replay",
	"obs.FlightRecorder.Recorded":          "state accessor a surviving test reads",
	"obs.Tracer.Recorded":                  "state accessor a surviving test reads",
	"policy.Router.NumFree":                "state accessor a surviving test reads",
	"policy.Router.Reachable":              "state accessor a surviving test reads",
	"routing.Metrics.SetCapacity":          "cross-package test fixture: handcrafted thin links",
	"routing.Metrics.SetLatency":           "cross-package test fixture: handcrafted latencies",
	"sim.expiryHeap.Less":                  "interface method (container/heap)",
	"topology.RegionPartition.Touches":     "cross-package test fixture",
	"topology.Topology.SetRel":             "cross-package test fixture: hand-built relationship labels",
	"workload.PairGen.NumEligible":         "state accessor a surviving test reads",
}

// TestExportsHaveANonTestReference is the orphan-export rule of ROADMAP item
// 10, executable: an exported func, method, type, const or var declared in a
// non-test file under internal/ stays only if some non-test file refers to it
// or keptExports says why not. The scan is syntactic (go/parser, no type
// information). A package-level name is referred to by a bare identifier in
// its own package or by a selector on the package's import name elsewhere. A
// method is referred to by any selector with its name, whatever the receiver:
// the scan cannot tell receivers apart, so it errs toward keeping.
func TestExportsHaveANonTestReference(t *testing.T) {
	const module = "brokerset/"
	fset := token.NewFileSet()
	type file struct {
		dir string
		ast *ast.File
	}
	var files []file
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
		files = append(files, file{dir: filepath.ToSlash(filepath.Dir(path)), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations: package-level names by (dir, name), methods by name, each
	// remembered with the position of the declaring identifier so the walk
	// below does not count a declaration as a reference to itself.
	type pkgName struct{ dir, name string }
	declared := map[pkgName]string{} // -> display name
	methods := map[string][]string{} // method name -> display names
	declPos := map[token.Pos]bool{}
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		pkg := f.dir[strings.LastIndex(f.dir, "/")+1:]
		declare := func(id *ast.Ident) {
			declPos[id.Pos()] = true
			if id.IsExported() {
				declared[pkgName{f.dir, id.Name}] = pkg + "." + id.Name
			}
		}
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(d.Name)
					continue
				}
				declPos[d.Name.Pos()] = true
				if !d.Name.IsExported() {
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok { // generic receiver
					recv = idx.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					methods[d.Name.Name] = append(methods[d.Name.Name], pkg+"."+id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id)
						}
					}
				}
			}
		}
	}

	used := map[pkgName]bool{}
	called := map[string]bool{}
	for _, f := range files {
		imports := map[string]string{} // local name -> package dir
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(p, module)
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
				called[n.Sel.Name] = true
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
	for m, names := range methods {
		if !called[m] {
			for _, name := range names {
				found[name] = true
			}
		}
	}
	var orphans []string
	for name := range found {
		if keptExports[name] == "" {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d exported name(s) under internal/ no non-test file refers to; delete each or give keptExports its reason:\n  %s",
			len(orphans), strings.Join(orphans, "\n  "))
	}
	for name := range keptExports {
		if !found[name] {
			t.Errorf("keptExports lists %s, which is gone or has a non-test reference now: drop the entry", name)
		}
	}
}
