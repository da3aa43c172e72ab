package sae

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportAllowlist is every exported function and method of an internal/
// package that no non-test file of the module calls, with the reason it
// stays. TestInternalExportsHaveCallers fails on an uncalled export missing
// from it, and on an entry that has since found a caller.
var exportAllowlist = map[string]string{
	"autoscale.Adaptive.Capacity": "the planner's µ estimate, which its tests check the estimator through",
	"cluster.Cluster.Kernel":      "the control-plane kernel of a sharded cluster, beside Node and Size",
	"conf.Registry.InCategory":    "registry query the conf tests check every category with",
	"conf.Registry.Keys":          "registry listing the conf tests check the key set with",
	"conf.Registry.Lookup":        "lookup by key, used by the conf and scenario tests",
	"device.CPU.Active":           "runnable-thread count, the CPU's counterpart of Disk.Active",
	"device.CPU.Snapshot":         "busy core-seconds of the CPU, beside Disk.Snapshot",
	"device.Disk.Active":          "in-flight streams, which the device tests hold OverloadAhead to",
	"device.NIC.Snapshot":         "link busy time, beside Disk.Snapshot",
	"device.Uniform":              "the no-variability model the test clusters are built with",
	"dfs.DropTables":              "empties the list of recent input tables, so the engine tests' allocation budgets start cold",
	"engine.EnableTestBug":        "plants a known violation so the audit and hunt tests prove they catch it",
	"engine.Engine.Executors":     "the executor table the fault and recycling tests inspect",
	"engine.Engine.FS":            "the file system the engine tests read output files from",
	"engine.Executor.Alive":       "liveness the fault tests check after a crash",
	"engine.Executor.Restarts":    "restart count the fault tests check",
	"exp.AblationResult.Get":      "row lookup the ablation test and benchmark read the table by",
	"exp.InterferenceResult.Get":  "row lookup the interference test reads the table by",
	"invariant.Auditor.Dropped":   "violations past the cap, which the invariant tests check the cap with",
	"sim.Kernel.PendingEvents":    "queue introspection the kernel and shard tests check",
	"sim.Kernel.Stop":             "ends a run early; the kernel tests stop parked receivers with it",
	"sim.Proc.Kernel":             "the kernel a process belongs to",
	"sim.Proc.Name":               "the process name given to Go, which the coroutine tests log",
	"sim.ShardSet.Stop":           "ends a sharded run early, as Kernel.Stop does a plain one",
	"telemetry.Counter.Value":     "read side of Add, which the telemetry tests check",
	"telemetry.Gauge.Add":         "relative update of a gauge, which the telemetry tests use",
	"telemetry.Gauge.Value":       "read side of Set and Add, which the telemetry tests check",
	"telemetry.Histogram.Count":   "observation count the telemetry tests check",
	"telemetry.Histogram.Sum":     "observation sum, beside Count, which the telemetry tests check",
	"telemetry.Registry.Value":    "lookup of one series by name and labels, which the engine telemetry tests read",
}

// TestInternalExportsHaveCallers type-checks every package of the module
// (benchmark/, cmd/ and examples/ included, test files excluded) and lists the
// exported functions and methods of internal/ packages that no non-test file
// uses. A method is skipped when its receiver type, or a pointer to it,
// implements a named interface that declares it: a call through that
// interface does not name the method itself.
func TestInternalExportsHaveCallers(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command on PATH")
	}
	uncalled, err := uncalledInternalExports()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range uncalled {
		if _, ok := exportAllowlist[name]; !ok {
			t.Errorf("%s is exported but no non-test file calls it: delete it, or allowlist it with a reason", name)
		}
	}
	for name := range exportAllowlist {
		if !slices.Contains(uncalled, name) {
			t.Errorf("allowlisted %s now has a caller (or is gone): drop it from exportAllowlist", name)
		}
	}
}

// listedPackage is the part of `go list -json` the analyzer reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// uncalledInternalExports returns the sorted names ("dfs.FS.Create",
// "arrival.Poisson.Rate") of the exported internal/ functions and methods no
// non-test file uses.
func uncalledInternalExports() ([]string, error) {
	out, err := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}

	// The standard library comes from its export data; the module's own
	// packages are checked from source, in the dependency order go list
	// prints, so that their uses are recorded.
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	used := map[*types.Func]bool{}
	var module []*types.Package
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg
		module = append(module, pkg)
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}

	// Every named interface the module can see, the universe's error among
	// them; generic ones are skipped, as no receiver implements them
	// uninstantiated.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var collect func(*types.Package)
	collect = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
					continue
				}
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					ifaces = append(ifaces, iface)
				}
			}
		}
		for _, dep := range pkg.Imports() {
			collect(dep)
		}
	}
	for _, pkg := range module {
		collect(pkg)
	}
	// implemented reports whether the method m of named is one of an
	// interface that named, or a pointer to it, implements: a call through
	// that interface does not name the method itself.
	implemented := func(named *types.Named, m *types.Func) bool {
		for _, iface := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(iface, false, m.Pkg(), m.Name()); obj == nil {
				continue
			}
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}

	var uncalled []string
	for _, pkg := range module {
		short, ok := strings.CutPrefix(pkg.Path(), "sae/internal/")
		if !ok {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !used[obj] {
					uncalled = append(uncalled, short+"."+name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := range named.NumMethods() {
					m := named.Method(i)
					if m.Exported() && !used[m] && !implemented(named, m) {
						uncalled = append(uncalled, short+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	slices.Sort(uncalled)
	return uncalled, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
