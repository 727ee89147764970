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

// keptOptions is the allow-list of TestOptionsHaveAnOutsideCaller: exported
// Config/Options fields under internal/ that no non-test file outside their
// package sets, and the reason each one stays anyway. Everything else that
// scan finds becomes a constant (ROADMAP item 10).
var keptOptions = map[string]string{
	"ctrlplane.FaultRates.Delay":            "fault/chaos fixture: the chaos suites delay messages through it",
	"ctrlplane.FaultRates.MaxDelay":         "fault/chaos fixture: bounds FaultRates.Delay",
	"ctrlplane.FaultRates.Reorder":          "fault/chaos fixture: the chaos suites reorder messages through it",
	"ctrlplane.RetryConfig.BreakerCooldown": "fault/chaos fixture: retries become real when regions are processes (ROADMAP 5b)",
	"broker.RepairOptions.Epsilon":          "algorithm parameter the guarded repair baselines run at 0, 0.01 and 0.02",
	"sim.WorkloadConfig.MeanBandwidth":      "simulator workload shape, off the serving path: sim's tests oversubscribe links through it",
	"sim.WorkloadConfig.MeanDuration":       "simulator workload shape, off the serving path: sim's tests hold sessions across arrivals through it",
	"sim.WorkloadConfig.Horizon":            "simulator workload shape, off the serving path: sim's tests compress arrivals through it",
}

// optionStruct reports whether name is an exported *Config / *Options /
// *Target type — the structs the option rule covers. A workload target's
// fields are how a caller configures it. FaultRates is one in all but name:
// it is the transport's fault-injection configuration.
func optionStruct(name string) bool {
	return ast.IsExported(name) && (strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") ||
		strings.HasSuffix(name, "Target") || name == "FaultRates")
}

// TestOptionsHaveAnOutsideCaller is the option rule, executable: an exported
// field of an exported Config/Options/Target struct under internal/ stays only if
// some non-test file outside the declaring package sets it — in a keyed
// composite literal or by assignment — or keptOptions says why not. The scan
// is syntactic (go/parser, no type information): a literal is resolved
// through the file's imports; an assignment `x.F = v` or a `&x.F` handed to
// the flag package counts for every option field named F declared in a
// package the file imports.
func TestOptionsHaveAnOutsideCaller(t *testing.T) {
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

	// set: every option field under internal/, and whether an outside file
	// sets it.
	type field struct{ dir, typ, name string }
	set := map[field]bool{}
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !optionStruct(ts.Name.Name) {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if name.IsExported() {
						set[field{f.dir, ts.Name.Name, name.Name}] = false
					}
				}
			}
			return true
		})
	}

	for _, f := range files {
		imports := map[string]string{} // local name -> package dir
		imported := map[string]bool{}
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(p, module)
			if !ok || dir == f.dir {
				continue
			}
			name := dir[strings.LastIndex(dir, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
			imported[dir] = true
		}
		// assigned marks every field on the selector chain: cfg.SLO.Every = v
		// sets SLO as much as Every.
		assigned := func(e ast.Expr) {
			for sel, ok := e.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
				for k := range set {
					if k.name == sel.Sel.Name && imported[k.dir] {
						set[k] = true
					}
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							k := field{imports[pkg.Name], sel.Sel.Name, key.Name}
							if _, ok := set[k]; ok {
								set[k] = true
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					assigned(lhs)
				}
			case *ast.UnaryExpr: // flag.IntVar(&cfg.F, ...)
				if n.Op == token.AND {
					assigned(n.X)
				}
			}
			return true
		})
	}

	var orphans []string
	found := map[string]bool{}
	for k, isSet := range set {
		if isSet {
			continue
		}
		name := k.dir[strings.LastIndex(k.dir, "/")+1:] + "." + k.typ + "." + k.name
		found[name] = true
		if keptOptions[name] == "" {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d option field(s) no non-test file outside their package sets; make each a constant or give keptOptions its reason:\n  %s",
			len(orphans), strings.Join(orphans, "\n  "))
	}
	for name := range keptOptions {
		if !found[name] {
			t.Errorf("keptOptions lists %s, which is gone or has an outside caller now: drop the entry", name)
		}
	}
}
