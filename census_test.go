package gpufs_test

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The option census (DESIGN.md §18). Every exported field of a
// configuration struct is a settable value, and each independent one doubles
// what the oracle, chaos and benchmark suites must cover. A field earns its
// place one of three ways: a shipped file outside the one that declares it
// sets it, or it is a constant of the modelled hardware that only the
// declaring file's defaults set (censusCalibration), or it is the only road
// by which an existing test reaches a state (censusTestSeams). A field that
// is none of these is a switch nobody flips: make it a constant.

// censusStruct names one configuration struct: where it is declared, and
// under which qualified names other packages spell it.
type censusStruct struct {
	name    string   // how this test reports it
	dir     string   // declaring directory, relative to the repo root
	file    string   // declaring file: setters inside it do not count
	typ     string   // type name inside the declaring package
	imports []string // import paths through which other packages reach it
	quals   []string // qualified spellings of the type
}

var censusStructs = []censusStruct{
	{"params.Config", "internal/params", "params.go", "Config",
		[]string{"gpufs/internal/params", "gpufs"}, []string{"params.Config", "gpufs.Config"}},
	{"core.Options", "internal/core", "fs.go", "Options",
		[]string{"gpufs/internal/core"}, []string{"core.Options"}},
	{"serve.Config", "internal/serve", "serve.go", "Config",
		[]string{"gpufs/internal/serve"}, []string{"serve.Config"}},
	{"fleet.Config", "internal/fleet", "fleet.go", "Config",
		[]string{"gpufs/internal/fleet"}, []string{"fleet.Config"}},
	{"fleet.SimHostConfig", "internal/fleet", "factory.go", "SimHostConfig",
		[]string{"gpufs/internal/fleet"}, []string{"fleet.SimHostConfig"}},
	{"rpc.Config", "internal/rpc", "rpc.go", "Config",
		[]string{"gpufs/internal/rpc"}, []string{"rpc.Config"}},
}

// censusCalibration lists the fields of params.Config that describe the
// modelled machine — the paper's testbed (§5) and the cost constants fitted
// to its figures — and that only params.Default sets. They are one value by
// design: a different value is a different machine, which is what a Config
// is for. Scale is here because callers set it through ScaledConfig's
// argument, never by name.
var censusCalibration = map[string]bool{
	"params.Config.NumCPUCores":          true,
	"params.Config.MPsPerGPU":            true,
	"params.Config.BlocksPerMP":          true,
	"params.Config.GPUMemBandwidth":      true,
	"params.Config.ScratchpadBytes":      true,
	"params.Config.KernelLaunchOverhead": true,
	"params.Config.PCIeBandwidth":        true,
	"params.Config.DMALatency":           true,
	"params.Config.CPUMemBandwidth":      true,
	"params.Config.SyscallOverhead":      true,
	"params.Config.DiskBandwidth":        true,
	"params.Config.DiskSeek":             true,
	"params.Config.APICostPerPage":       true,
	"params.Config.RadixLookupLockFree":  true,
	"params.Config.RadixLookupLocked":    true,
	"params.Config.RPCPollInterval":      true,
	"params.Config.RPCHandleCost":        true,
	"params.Config.GPUFlops":             true,
	"params.Config.CPUFlops":             true,
	"params.Config.GrepGPURate":          true,
	"params.Config.GrepCPURate":          true,
	"params.Config.Scale":                true,
}

// censusTestSeams lists the fields no shipped caller sets and a test must:
// each is the only way that test reaches the state it checks.
var censusTestSeams = map[string]bool{
	"params.Config.CkptMaxBytes":    true, // a budget of a few bytes wedges every capture
	"core.Options.EvictBatch":       true, // paging one frame at a time
	"serve.Config.StealThreshold":   true, // spill and steal at a queue of two
	"serve.Config.MaxAttempts":      true, // a budget of one: the first fault is final
	"serve.Config.MaxOutputBytes":   true, // transform truncation at a few bytes
	"fleet.Config.MaxRehomes":       true, // ErrRehomedTooOften within a short schedule
	"fleet.Config.SpillLoad":        true, // affinity spill at a handful of jobs
	"fleet.Config.CriticalXIDLimit": true, // cordon on the second critical XID
	"rpc.Config.MaxAttempts":        true, // the fault oracles' deeper retry budget
}

// censusSharedNames lists the fields below params.Config that share a name
// with one of its fields and are not a copy of it: each is an argument from
// which the declaring package builds a Config.
var censusSharedNames = map[string]bool{
	"fleet.SimHostConfig.Scale":   true, // the ScaledConfig factor of every host
	"fleet.SimHostConfig.NumGPUs": true, // overrides the scaled config's GPU count
}

func TestOptionCensus(t *testing.T) {
	fset := token.NewFileSet()
	fields := map[string][]string{} // struct name → exported fields, in order
	type setters struct{ shipped, tests []string }
	set := map[string]*setters{} // "struct.Field" → files that set it

	// Examples are not callers of an option (the simplicity-review guide's
	// Options rule).
	var files []string
	all, parsed := parseTree(t, fset)
	for _, path := range all {
		if !strings.HasPrefix(path, "examples/") {
			files = append(files, path)
		}
	}

	// Pass 1: the fields.
	for _, cs := range censusStructs {
		f := parsed[cs.dir+"/"+cs.file]
		if f == nil {
			t.Fatalf("%s: declaring file %s/%s not found", cs.name, cs.dir, cs.file)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != cs.typ {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fl := range st.Fields.List {
				names := fl.Names
				if len(names) == 0 { // embedded: the field is named after its type
					names = []*ast.Ident{embeddedName(fl.Type)}
				}
				for _, id := range names {
					if id.IsExported() {
						fields[cs.name] = append(fields[cs.name], id.Name)
						set[cs.name+"."+id.Name] = &setters{}
					}
				}
			}
			return false
		})
		if len(fields[cs.name]) == 0 {
			t.Fatalf("%s: no exported fields found in %s/%s", cs.name, cs.dir, cs.file)
		}
	}

	// No struct below params.Config copies one of its fields: what the
	// machine's Config holds is passed down whole (core.Options embeds it),
	// and a field of the same name is a second copy two callers must keep
	// equal.
	machine := map[string]bool{}
	for _, field := range fields[censusStructs[0].name] {
		machine[field] = true
	}
	for _, cs := range censusStructs[1:] {
		for _, field := range fields[cs.name] {
			if key := cs.name + "." + field; machine[field] && !censusSharedNames[key] {
				t.Errorf("%s copies params.Config.%s: pass the Config down instead", key, field)
			}
		}
	}
	for key := range censusSharedNames {
		if field := key[strings.LastIndex(key, ".")+1:]; set[key] == nil || !machine[field] {
			t.Errorf("census lists %s as sharing a name with params.Config, which it does not", key)
		}
	}

	// Pass 2: the setters. Without type information a composite literal is
	// matched by how its type is spelled, and an assignment x.Field = … by
	// the field's name in a file that can see the struct (its own package,
	// or an importer of it).
	for _, path := range files {
		f := parsed[path]
		dir := filepath.ToSlash(filepath.Dir(path))
		isTest := strings.HasSuffix(path, "_test.go")
		imports := map[string]bool{}
		for _, im := range f.Imports {
			imports[strings.Trim(im.Path.Value, `"`)] = true
		}
		sees := func(cs censusStruct) bool {
			if dir == cs.dir {
				return true
			}
			for _, p := range cs.imports {
				if imports[p] || (p == "gpufs" && dir == ".") {
					return true
				}
			}
			return false
		}
		record := func(cs censusStruct, field string) {
			s := set[cs.name+"."+field]
			if s == nil || path == cs.dir+"/"+cs.file {
				return
			}
			if isTest {
				s.tests = append(s.tests, path)
			} else {
				s.shipped = append(s.shipped, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				var spelled string
				switch tx := n.Type.(type) {
				case *ast.Ident:
					spelled = tx.Name
				case *ast.SelectorExpr:
					if x, ok := tx.X.(*ast.Ident); ok {
						spelled = x.Name + "." + tx.Sel.Name
					}
				}
				for _, cs := range censusStructs {
					match := spelled == cs.typ && dir == cs.dir
					for _, q := range cs.quals {
						match = match || spelled == q || (dir == "." && "gpufs."+spelled == q)
					}
					if !match {
						continue
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if k, ok := kv.Key.(*ast.Ident); ok {
								record(cs, k.Name)
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					for _, cs := range censusStructs {
						if sees(cs) {
							record(cs, sel.Sel.Name)
						}
					}
				}
			}
			return true
		})
	}

	// The verdicts, and the table DESIGN.md §18 is written from (-v).
	var unset []string
	for _, cs := range censusStructs {
		for _, field := range fields[cs.name] {
			key := cs.name + "." + field
			s := set[key]
			var class string
			switch {
			case len(s.shipped) > 0:
				class = "set by " + strings.Join(dedupe(s.shipped), ", ")
			case censusCalibration[key]:
				class = "calibration"
			case censusTestSeams[key] && len(s.tests) > 0:
				class = "test seam: " + strings.Join(dedupe(s.tests), ", ")
			default:
				unset = append(unset, key)
				class = "NEVER SET"
			}
			t.Logf("%-40s %s", key, class)
		}
	}
	if len(unset) > 0 {
		t.Errorf("%d settable value(s) no shipped file sets, that are neither calibration nor a listed test seam — make each a constant, or class it in this file and DESIGN.md §18:\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
	// A list that names a field which is gone, or which a shipped file now
	// sets, has drifted.
	for _, list := range []map[string]bool{censusCalibration, censusTestSeams} {
		for key := range list {
			if s := set[key]; s == nil {
				t.Errorf("census lists %s, which is not a field", key)
			} else if len(s.shipped) > 0 {
				t.Errorf("census lists %s as unset by shipped code, but %s sets it", key, fmt.Sprint(dedupe(s.shipped)))
			}
		}
	}
}

// parseTree parses every Go file of the tree, the benchmark module's too,
// and returns their slash-separated paths in walk order. Hidden directories
// hold build copies and artifacts holds outputs: both are skipped.
func parseTree(t *testing.T, fset *token.FileSet) ([]string, map[string]*ast.File) {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "artifacts") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	parsed := map[string]*ast.File{}
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		parsed[path] = f
	}
	return files, parsed
}

// The call census (DESIGN.md §18). A file-system call is a promise every
// layer below it keeps: a trace op, a syscall, a wire op, a host handler.
// A call on *BlockCtx earns its place by being one of the paper's (§3,
// Table 1) or by having a shipped caller: an example, a command, the
// benchmark, or the workloads and serving layer they run. A syscall number
// earns its place by being issued from a gsys.Client method that non-test
// code outside internal/gsys calls. A call only a test reaches is code
// kept alive for its own tests: delete it.

// censusPaperCalls are the paper's file API on *BlockCtx, with gfsync's
// range and disk forms.
var censusPaperCalls = map[string]bool{
	"Gopen": true, "Gclose": true, "Gread": true, "Gwrite": true,
	"Gfsync": true, "GfsyncRange": true, "GfsyncDisk": true,
	"Gmmap": true, "Gmunmap": true, "Gmsync": true,
	"Gftruncate": true, "Gunlink": true, "Gfstat": true,
}

// censusCallerDirs are where a shipped caller of a *BlockCtx call lives.
var censusCallerDirs = []string{"examples/", "cmd/", "internal/bench/", "internal/workloads/", "internal/serve/", "benchmark/"}

func TestCallCensus(t *testing.T) {
	fset := token.NewFileSet()
	files, parsed := parseTree(t, fset)
	shipped := func(path string) bool { return !strings.HasSuffix(path, "_test.go") }

	// The calls on *BlockCtx, and the shipped files that call each by
	// name.
	var calls []string
	for _, path := range files {
		if filepath.Dir(path) != "." || !shipped(path) {
			continue
		}
		for _, d := range parsed[path].Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && recvName(fd) == "*BlockCtx" {
				calls = append(calls, fd.Name.Name)
			}
		}
	}
	callers := map[string][]string{}
	for _, path := range files {
		if !shipped(path) || !slices.ContainsFunc(censusCallerDirs, func(d string) bool { return strings.HasPrefix(path, d) }) {
			continue
		}
		ast.Inspect(parsed[path], func(n ast.Node) bool {
			if ce, ok := n.(*ast.CallExpr); ok {
				if sel, ok := ce.Fun.(*ast.SelectorExpr); ok {
					callers[sel.Sel.Name] = append(callers[sel.Sel.Name], path)
				}
			}
			return true
		})
	}
	for _, name := range calls {
		switch {
		case censusPaperCalls[name]:
			t.Logf("%-40s paper call", "BlockCtx."+name)
		case len(callers[name]) > 0:
			t.Logf("%-40s called by %s", "BlockCtx."+name, strings.Join(dedupe(callers[name]), ", "))
		default:
			t.Errorf("BlockCtx.%s is not one of the paper's calls and no example, command, benchmark, workload or serving file calls it: delete it, and what only it reaches", name)
		}
	}
	for name := range censusPaperCalls {
		if !slices.Contains(calls, name) {
			t.Errorf("census lists paper call %s, which BlockCtx does not declare", name)
		}
	}

	// The syscall numbers, and the Client methods that issue each.
	var sysnos []string
	issuers := map[string][]string{} // Sysno → Client methods naming it
	for _, path := range files {
		if !strings.HasPrefix(path, "internal/gsys/") || !shipped(path) {
			continue
		}
		for _, d := range parsed[path].Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				if d.Tok != token.CONST || len(d.Specs) == 0 {
					continue
				}
				if first, ok := d.Specs[0].(*ast.ValueSpec); !ok || !isIdent(first.Type, "Sysno") {
					continue
				}
				for _, spec := range d.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						if id.IsExported() {
							sysnos = append(sysnos, id.Name)
						}
					}
				}
			case *ast.FuncDecl:
				if r := recvName(d); r != "Client" && r != "*Client" {
					continue
				}
				ast.Inspect(d.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && strings.HasPrefix(id.Name, "Sys") {
						issuers[id.Name] = append(issuers[id.Name], d.Name.Name)
					}
					return true
				})
			}
		}
	}
	if len(sysnos) == 0 {
		t.Fatal("no Sysno constants found in internal/gsys")
	}

	// Outside internal/gsys a client is reached through a function that
	// returns one or a field that holds one; Bind derives a view of a
	// client. A method call on such an expression is a call of Client's.
	clientFuncs, clientFields := map[string]bool{}, map[string]bool{}
	isClient := func(x ast.Expr) bool {
		if s, ok := x.(*ast.StarExpr); ok {
			x = s.X
		}
		sel, ok := x.(*ast.SelectorExpr)
		return ok && isIdent(sel.X, "gsys") && sel.Sel.Name == "Client"
	}
	for _, path := range files {
		if strings.HasPrefix(path, "internal/gsys/") || !shipped(path) {
			continue
		}
		ast.Inspect(parsed[path], func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if res := n.Type.Results; res != nil && len(res.List) == 1 && isClient(res.List[0].Type) {
					clientFuncs[n.Name.Name] = true
				}
			case *ast.Field:
				if isClient(n.Type) {
					for _, id := range n.Names {
						clientFields[id.Name] = true
					}
				}
			}
			return true
		})
	}
	var reaches func(x ast.Expr) bool
	reaches = func(x ast.Expr) bool {
		switch x := x.(type) {
		case *ast.SelectorExpr:
			return clientFields[x.Sel.Name]
		case *ast.CallExpr:
			switch fn := x.Fun.(type) {
			case *ast.Ident:
				return clientFuncs[fn.Name]
			case *ast.SelectorExpr:
				if fn.Sel.Name == "Bind" {
					return reaches(fn.X)
				}
				return clientFuncs[fn.Sel.Name]
			}
		}
		return false
	}
	clientCallers := map[string][]string{} // Client method → shipped files calling it
	for _, path := range files {
		if strings.HasPrefix(path, "internal/gsys/") || !shipped(path) {
			continue
		}
		ast.Inspect(parsed[path], func(n ast.Node) bool {
			if ce, ok := n.(*ast.CallExpr); ok {
				if sel, ok := ce.Fun.(*ast.SelectorExpr); ok && reaches(sel.X) {
					clientCallers[sel.Sel.Name] = append(clientCallers[sel.Sel.Name], path)
				}
			}
			return true
		})
	}
	for _, sys := range sysnos {
		var by []string
		for _, m := range dedupe(issuers[sys]) {
			if c := clientCallers[m]; len(c) > 0 {
				by = append(by, "Client."+m+" ("+strings.Join(dedupe(c), ", ")+")")
			}
		}
		if len(by) == 0 {
			t.Errorf("gsys.%s is issued by no gsys.Client method that shipped code outside internal/gsys calls (issuers: %v): delete it, its handler and its wire op", sys, dedupe(issuers[sys]))
			continue
		}
		t.Logf("%-40s issued by %s", "gsys."+sys, strings.Join(by, "; "))
	}
}

// recvName spells a method's receiver type ("*T" or "T"), or "" for a
// function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	switch x := fd.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return "*" + id.Name
		}
	case *ast.Ident:
		return x.Name
	}
	return ""
}

func isIdent(x ast.Expr, name string) bool {
	id, ok := x.(*ast.Ident)
	return ok && id.Name == name
}

// embeddedName is the name an embedded field of type x goes by: its type
// name, with any package qualifier and pointer dropped.
func embeddedName(x ast.Expr) *ast.Ident {
	switch x := x.(type) {
	case *ast.StarExpr:
		return embeddedName(x.X)
	case *ast.SelectorExpr:
		return x.Sel
	case *ast.Ident:
		return x
	}
	return ast.NewIdent("_")
}

func dedupe(in []string) []string {
	sort.Strings(in)
	return slices.Compact(in)
}

// The structure census (ROADMAP item 12). Some rules of the code's shape are
// about who may call what: one function owns a host call, and a call that
// would reintroduce a second path is banned outright. Each rule is one row,
// checked on the parsed tree, so a comment or a string never matches and a
// method value counts as a use. A use outside the owner, or an owner that
// makes a different number of uses, fails with the row's reason.

// structureRule is one row: in the non-test files of dir, x.selector appears
// count times, all of them in the function owner ("" when nothing may use it).
type structureRule struct {
	what     string // the rule, as the log and a failure name it
	dir      string // the package directory, relative to the repo root
	owner    string // the one function (or method) allowed the uses
	selector string // the selected name: a method, field or package member
	count    int    // the uses the owner makes
	why      string // why the rule exists
}

var structureRules = []structureRule{
	{"the daemon's host read", "internal/gsys", "readFull", "Preadv", 1,
		"every read handler (a fault, a read-ahead span, an open's head) goes through readInto, whose readFull preadvs straight into the device segments and completes short reads: one host syscall per read, and the bytes are moved once"},
	{"the daemon's host write", "internal/gsys", "sysWriteLanded", "Pwritev", 1,
		"a write's second stretch gathers its landed segments into one pwritev, as a read scatters with one preadv"},
	{"no host pread in the daemon", "internal/gsys", "", "Pread", 0,
		"a pread fills one buffer, so a read of several segments would stage its bytes on the host and copy them again into the frames; read with Preadv in readFull"},
	{"no host pwrite in the daemon", "internal/gsys", "", "Pwrite", 0,
		"a pwrite drains one buffer, so a write of several segments would stage them on the host first; write with Pwritev in sysWriteLanded"},
}

func TestStructureCensus(t *testing.T) {
	fset := token.NewFileSet()
	files, parsed := parseTree(t, fset)
	for _, r := range structureRules {
		uses := map[string][]string{} // function → positions of its uses
		for _, path := range files {
			if filepath.ToSlash(filepath.Dir(path)) != r.dir || strings.HasSuffix(path, "_test.go") {
				continue
			}
			for _, d := range parsed[path].Decls {
				fn := "package scope"
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn = fd.Name.Name
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == r.selector {
						uses[fn] = append(uses[fn], fset.Position(sel.Sel.Pos()).String())
					}
					return true
				})
			}
		}
		allowed := "only " + r.owner + " may"
		if r.owner == "" {
			allowed = "no function may"
		}
		for fn, at := range uses {
			if fn != r.owner {
				t.Errorf("%s: %s uses .%s at %s; %s, because %s",
					r.what, fn, r.selector, strings.Join(at, ", "), allowed, r.why)
			}
		}
		if r.owner != "" && len(uses[r.owner]) != r.count {
			t.Errorf("%s: %s uses .%s %d times, want %d, because %s",
				r.what, r.owner, r.selector, len(uses[r.owner]), r.count, r.why)
		}
		t.Logf("%-30s %s: .%s, %d use(s) in %s", r.what, r.dir, r.selector, r.count, cmp.Or(r.owner, "no function"))
	}
}
