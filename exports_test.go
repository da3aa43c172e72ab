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
	"sync"
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

// checkedPackage is one package of the module, type-checked from its non-test
// files with the uses, selections and expression types recorded.
type checkedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// checkModule type-checks every package of the module from its non-test
// source, in the dependency order go list prints, once per test binary.
var checkModule = sync.OnceValues(func() ([]checkedPackage, error) {
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
	var module []checkedPackage
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
		info := &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Instances:  map[*ast.Ident]types.Instance{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg
		module = append(module, checkedPackage{pkg, files, info})
	}
	return module, nil
})

// uncalledInternalExports returns the sorted names ("dfs.FS.Create",
// "arrival.Poisson.Rate") of the exported internal/ functions and methods no
// non-test file uses.
func uncalledInternalExports() ([]string, error) {
	checked, err := checkModule()
	if err != nil {
		return nil, err
	}
	used := map[*types.Func]bool{}
	var module []*types.Package
	for _, c := range checked {
		module = append(module, c.pkg)
		for _, obj := range c.info.Uses {
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

// fieldAllowlist is every struct field of an internal/ package that no
// non-test file of the module reads, with the reason it stays.
// TestFieldsHaveReaders fails on an unread field missing from it, and on an
// entry that has since found a reader or is gone.
var fieldAllowlist = map[string]string{
	"arrival.Class.Priority":                   "a tenant's priority label, copied to its jobs' reports; no scheduler reads it yet (ROADMAP item 12)",
	"conf.Parameter.Doc":                       "the key's one-line description in the catalogue, which the conf tests require of every key",
	"dfs.File.Size":                            "a file's byte count, which the dfs and engine tests check written output files by",
	"engine.Executor.zombies":                  "completions dropped as an earlier incarnation's, which the recycling tests read through Zombies",
	"engine.ExecutorStageStats.InitialThreads": "the pool size a stage started at, the engine and rdd tests' view of a policy's first choice",
	"engine.ExecutorStageStats.LocalTasks":     "node-local task count, the engine tests' view of locality-aware placement",
	"engine.JobReport.Priority":                "the job's priority label (ROADMAP item 12)",
	"engine.JobReport.Sched":                   "the inter-job scheduler a run used, the multi-job tests' view of scheduler.mode",
	"engine.StageReport.DiskReadBytes":         "device-side bytes over the stage window, which the engine tests check",
	"engine.StageReport.DiskWriteBytes":        "device-side bytes over the stage window, which the engine tests check",
	"engine.StageReport.IOMarked":              "the compiler's I/O marking of a stage, which the rdd tests read",
	"engine.StageReport.NetBytes":              "device-side bytes over the stage window, which the engine tests check",
	"engine/job.Decision.Interval":             "the closed interval a decision read, which the interval tests and controllers.golden's hash check",
	"engine/job.ExecutorInfo.ID":               "part of a policy's view of its executor, which benchmark/ladder.go builds",
	"engine/job.ExecutorInfo.Node":             "part of a policy's view of its executor, which benchmark/ladder.go builds",
	"engine/job.StageMeta.Name":                "part of a policy's view of a stage, which benchmark/ladder.go builds",
	"engine/job.StageMeta.NumTasks":            "part of a policy's view of a stage, which benchmark/ladder.go builds",
	"exp.Setup.TraceFormat":                    "the retired trace-format switch benchmark/ still sets (ROADMAP item 9(d))",
	"psres.Stats.ActiveIntegral":               "the server's stream-count integral, which the reference test compares bit for bit",
	"psres.Stats.Served":                       "the server's served-work total, which the reference test compares bit for bit",
	"workloads.Spec.Class":                     "the HiBench category a workload models, its provenance beside Table 3's profile",
	"workloads.Spec.ProblemSize":               "the HiBench profile of Table 3 a workload models, its provenance",
}

// TestFieldsHaveReaders lists the struct fields of internal/ packages that no
// non-test file of the module reads — state a run computes for nobody:
// benchmark/, cmd/ and examples/ count as readers. A read is any selector use
// other than an assignment's left side (through indexing: x.f[i] = v writes
// f), an ++/-- operand, or the slice an assignment appends back to its own
// field (x.f = append(x.f, v)); a composite-literal key is a write. A struct
// compared whole — by == or !=, as a map key, or through a comparable type
// parameter (slices.Index) — has every field read. Embedded fields and
// fields with a struct tag (the reflection codecs read them) are skipped.
func TestFieldsHaveReaders(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command on PATH")
	}
	unread, err := unreadInternalFields()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unread {
		if _, ok := fieldAllowlist[name]; !ok {
			t.Errorf("%s is written but no non-test file reads it: delete it and what computes it, or allowlist it with a reason", name)
		}
	}
	for name := range fieldAllowlist {
		if !slices.Contains(unread, name) {
			t.Errorf("allowlisted %s now has a reader (or is gone): drop it from fieldAllowlist", name)
		}
	}
}

// unreadInternalFields returns the sorted names ("engine.StageReport.IOMarked",
// "exp.Setup.TraceFormat") of the struct fields of internal/ packages no
// non-test file reads.
func unreadInternalFields() ([]string, error) {
	checked, err := checkModule()
	if err != nil {
		return nil, err
	}
	read := map[*types.Var]bool{}
	// compared marks every field of t read when t is a struct: comparing two
	// values reads each of their fields.
	compared := func(t types.Type) {
		if st, ok := t.Underlying().(*types.Struct); ok {
			for f := range st.Fields() {
				read[f.Origin()] = true
			}
		}
	}
	for _, c := range checked {
		for e, tv := range c.info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				compared(m.Key())
			}
			if b, ok := e.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
				compared(c.info.Types[b.X].Type)
			}
		}
		// A comparable type parameter compares its argument: slices.Index
		// over a slice of structs reads their fields.
		for id, inst := range c.info.Instances {
			tps := c.info.Uses[id].Type().(interface{ TypeParams() *types.TypeParamList }).TypeParams()
			for i := range tps.Len() {
				if tps.At(i).Constraint().Underlying().(*types.Interface).IsComparable() {
					compared(inst.TypeArgs.At(i))
				}
			}
		}
		field := func(e ast.Expr) (*types.Var, *ast.SelectorExpr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.SelectorExpr:
					if sel, ok := c.info.Selections[x]; ok && sel.Kind() == types.FieldVal {
						return sel.Obj().(*types.Var).Origin(), x
					}
					return nil, nil
				default:
					return nil, nil
				}
			}
		}
		for _, f := range c.files {
			writes := map[*ast.SelectorExpr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						v, sel := field(lhs)
						if sel == nil {
							continue
						}
						writes[sel] = true
						if len(n.Rhs) != len(n.Lhs) {
							continue
						}
						if call, ok := n.Rhs[i].(*ast.CallExpr); ok && len(call.Args) > 0 {
							if id, ok := call.Fun.(*ast.Ident); ok {
								if b, ok := c.info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
									if w, arg := field(call.Args[0]); w == v && arg != nil {
										writes[arg] = true
									}
								}
							}
						}
					}
				case *ast.IncDecStmt:
					if _, sel := field(n.X); sel != nil {
						writes[sel] = true
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				if x, ok := n.(*ast.SelectorExpr); ok && !writes[x] {
					if sel, ok := c.info.Selections[x]; ok && sel.Kind() == types.FieldVal {
						read[sel.Obj().(*types.Var).Origin()] = true
					}
				}
				return true
			})
		}
	}

	var unread []string
	for _, c := range checked {
		short, ok := strings.CutPrefix(c.pkg.Path(), "sae/internal/")
		if !ok {
			continue
		}
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				if f := st.Field(i); !f.Embedded() && st.Tag(i) == "" && !read[f] {
					unread = append(unread, short+"."+name+"."+f.Name())
				}
			}
		}
	}
	slices.Sort(unread)
	return unread, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
