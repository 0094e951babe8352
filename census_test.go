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

// The structure census (DESIGN.md §18). Some rules of the code's shape are
// about who may use what: page.go owns the page lifecycle, ftable.go the file
// tables, one function owns each host call, and a name that would bring back
// a second path is banned outright. Each rule is one row, checked on the
// parsed tree, so a comment or a string never matches and a method value
// counts as a use. A use outside the owner, or an owner that makes a
// different number of uses, fails with the row's reason.

// structureRule is one row: in the non-test files of dir, every use lies in
// owner, and each owner makes count of them.
type structureRule struct {
	what   string  // the rule, as the log and a failure name it
	dir    string  // the package directory, relative to the repo root; "" for the whole tree
	except string  // a directory whose files the rule does not read
	owner  string  // a file of dir ("page.go"), or functions separated by spaces; "" when no use is allowed
	count  int     // the uses each owner makes, or anyCount
	use    matcher // what a use is
	why    string  // why the rule exists
}

// anyCount is a row's count when its owner may make any number of uses.
const anyCount = -1

// matcher is what a row counts as a use: how the log spells it, and how a
// node that is one spells it ("" for a node that is not).
type matcher struct {
	spell string
	hit   func(ast.Node) string
}

// sel matches a selector x.name, for each "name" or "qual.name" given, where
// qual is x's last name: fs.cache.Release is a cache.Release.
func sel(names ...string) matcher {
	spelled := make([]string, len(names))
	for i, name := range names {
		if spelled[i] = name; !strings.Contains(name, ".") {
			spelled[i] = "." + name
		}
	}
	return matcher{strings.Join(spelled, ", "), func(n ast.Node) string {
		s, ok := n.(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		for i, name := range names {
			qual, field, ok := strings.Cut(name, ".")
			if !ok && s.Sel.Name == name || ok && s.Sel.Name == field && lastName(s.X) == qual {
				return spelled[i]
			}
		}
		return ""
	}}
}

// ident matches every appearance of the names: a use, a selected field, a
// declaration or a composite literal's key.
func ident(names ...string) matcher {
	return matcher{strings.Join(names, ", "), func(n ast.Node) string {
		if id, ok := n.(*ast.Ident); ok && slices.Contains(names, id.Name) {
			return id.Name
		}
		return ""
	}}
}

// def matches a declaration of name: a const or var, or a := definition.
func def(name string) matcher {
	spell := "definition of " + name
	return matcher{spell, func(n ast.Node) string {
		var names []ast.Expr
		switch n := n.(type) {
		case *ast.ValueSpec:
			for _, id := range n.Names {
				names = append(names, id)
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				names = n.Lhs
			}
		}
		if slices.ContainsFunc(names, func(x ast.Expr) bool { return isIdent(x, name) }) {
			return spell
		}
		return ""
	}}
}

// setTrue matches name set to true, by an assignment or a composite
// literal's key.
func setTrue(name string) matcher {
	spell := name + " = true"
	return matcher{spell, func(n ast.Node) string {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if len(n.Lhs) == len(n.Rhs) && lastName(lhs) == name && isIdent(n.Rhs[i], "true") {
					return spell
				}
			}
		case *ast.KeyValueExpr:
			if isIdent(n.Key, name) && isIdent(n.Value, "true") {
				return spell
			}
		}
		return ""
	}}
}

// imports matches an import of any of the paths.
func imports(paths ...string) matcher {
	return matcher{"import " + strings.Join(paths, ", "), func(n ast.Node) string {
		if im, ok := n.(*ast.ImportSpec); ok && slices.Contains(paths, strings.Trim(im.Path.Value, `"`)) {
			return "import " + im.Path.Value
		}
		return ""
	}}
}

// lastName is the name an expression ends in: x for x, and for a.b.x.
func lastName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

var structureRules = []structureRule{
	{what: "rpc is a transport", dir: "internal/rpc",
		use: imports("gpufs/internal/hostfs", "gpufs/internal/gsys"),
		why: "internal/rpc is the ring transport and the daemon pool: it knows an Op and a Handler, and the file protocol lives above it, in internal/gsys"},
	{what: "page.go moves a page", dir: "internal/core", owner: "page.go", count: anyCount,
		use: sel("TryBeginInit", "FinishInit", "AbortInit", "TryEvict", "CancelEvict", "FinishEvict"),
		why: "page.go is the one owner of the page lifecycle (DESIGN.md §16): it composes each radix slot transition with what it implies for the frame, fileCache.frames and the speculation counters, which a transition taken elsewhere leaves behind"},
	{what: "page.go takes a frame", dir: "internal/core", owner: "page.go", count: anyCount,
		use: sel("cache.TryAllocOn", "cache.Release", "cache.Unalloc", "frames.Add"),
		why: "page.go is the one file that takes or frees a frame, hands back one an open offered (pcache's Unalloc) or moves fileCache.frames, so the pool and the resident counts agree"},
	{what: "page.go dirties a page", dir: "internal/core", owner: "page.go", count: anyCount,
		use: sel("Dirty.Store", "Dirty.Swap", "Dirty.CompareAndSwap", "dirty.Add", "dirtyPages.Add", "HintDirty",
			"CleanAt.Store", "CleanAt.CompareAndSwap", "WroteAt.Store", "WroteAt.CompareAndSwap"),
		why: "page.go is the one file that moves Frame.Dirty, the dirty-page counts and leaf dirty masks kept beside it, or Frame.CleanAt and WroteAt, so the cleaner's hints and a write-back's landing times move with the flag"},
	{what: "core's host write", dir: "internal/core", owner: "flush", count: 1, use: sel("WritePages"),
		why: "every host write core makes is gathered into the write-back run's flush, one WritePages call"},
	{what: "core's demand read", dir: "internal/core", owner: "faultIn", count: 1, use: sel("Read"),
		why: "every host read core makes is the demand fault's, which carries its stream's window, or spanFetch's"},
	{what: "core's read ahead", dir: "internal/core", owner: "spanFetch", count: 1, use: sel("ReadAsync"),
		why: "every host read core makes is the demand fault's, which carries its stream's window, or spanFetch's"},
	{what: "one host-I/O bound", dir: "internal/core", owner: "page.go", count: 1, use: def("maxHostIO"),
		why: "one constant, maxHostIO, bounds every host transaction: every coalesced read, open carry and gathered write stays within it"},
	{what: "no second host-I/O bound", dir: "internal/core", use: ident("raMaxSpanBytes", "wbMaxVec"),
		why: "maxHostIO replaced the read-ahead span cap and the write-back gather cap: a second bound would let reads and writes drift apart again"},
	{what: "the planner's gate", dir: "internal/core", owner: "readahead.go", count: 1, use: sel("speculate"),
		why: "readahead.go's planner is the one gate, budget and clamp of every fetch ahead of demand, and its gate is the one reader of FS.speculate"},
	{what: "the planner's budget", dir: "internal/core", owner: "readahead.go", count: anyCount, use: sel("closedCleanPages"),
		why: "readahead.go's planner is the one gate, budget and clamp of every fetch ahead of demand: no other file sizes a fetch from the closed files' clean pages"},
	{what: "the planner's clamp", dir: "internal/core", owner: "readahead.go", count: anyCount, use: ident("raDeadPage", "maxBatchFetch"),
		why: "readahead.go's planner is the one gate, budget and clamp of every fetch ahead of demand: no other file applies the dead zone or the batch cap"},
	{what: "speculation's reclaim", dir: "internal/core", owner: "takeFrame", count: 1, use: sel("reclaimForSpec"),
		why: "an open's head and every guess reclaim closed clean pages through the same one call, takeFrame's"},
	{what: "a slot's frontier", dir: "internal/core", owner: "prime raIssue", count: 1, use: setTrue("frontierOK"),
		why: "a detector slot's frontier is set by raIssue and by prime, the priming helper a carrying fault and an open's head share, and nowhere else"},
	{what: "a file's detector slots", dir: "internal/core", owner: "ftable.go", count: anyCount, use: sel("ra"),
		why: "a file's slot array and each slot are made by the stream that writes them, streamFor, and read through stream, which answers nil for a slot no stream has used"},
	{what: "ftable.go's tables", dir: "internal/core", owner: "ftable.go", count: anyCount,
		use: sel("fds", "byPath", "closed", "closedByPath", "truncated"),
		why: "ftable.go owns the open and closed file tables, their indexes and the truncated-once set: every move of an entry is one method there, under the table lock"},
	{what: "a retired cache's descriptor", dir: "internal/core", owner: "ftable.go", count: anyCount, use: ident("keepFd", "lastFlags"),
		why: "a cache's retained descriptor and flags are the closed table's fields, guarded by its lock and non-zero exactly while the cache is retired"},
	{what: "one reader of Prototype", except: "internal/bench", owner: "New", count: 1, use: sel("Prototype"),
		why: "core.New reads Config.Prototype once and turns it into FS state: gpufs.go passes the Config through whole, internal/bench sets it, and no other package branches on it"},
	{what: "the daemon's host read", dir: "internal/gsys", owner: "readFull", count: 1, use: sel("Preadv"),
		why: "every read handler (a fault, a read-ahead span, an open's head) goes through readInto, whose readFull preadvs straight into the device segments and completes short reads: one host syscall per read, and the bytes are moved once"},
	{what: "the daemon's host write", dir: "internal/gsys", owner: "sysWriteLanded", count: 1, use: sel("Pwritev"),
		why: "a write's second stretch gathers its landed segments into one pwritev, as a read scatters with one preadv"},
	{what: "no host pread in the daemon", dir: "internal/gsys", use: sel("Pread"),
		why: "a pread fills one buffer, so a read of several segments would stage its bytes on the host and copy them again into the frames; read with Preadv in readFull"},
	{what: "no host pwrite in the daemon", dir: "internal/gsys", use: sel("Pwrite"),
		why: "a pwrite drains one buffer, so a write of several segments would stage them on the host first; write with Pwritev in sysWriteLanded"},
	{what: "the search job's count", dir: "internal/serve", owner: "searchCount", count: 1, use: sel("bytes.Count"),
		why: "bytes.Count re-enters bytes.Index for every match, which cost most of serve_open's host time; searchCount steps over a match in place and hands bytes.Count only words of one byte or more than 31 and the rest of a buffer full of false candidates"},
	{what: "no substring search in serve", dir: "internal/serve", use: sel("bytes.Index"),
		why: "a count built on bytes.Index pays its set-up per match; count with searchCount"},
	{what: "one placement hash", owner: "place.go", count: 1, use: sel("fnv.New32a"),
		why: "a cold file's GPU inside a host and its fleet home both read serve.PathHash (internal/serve/place.go): with one index the host and the GPU never pick the same bit, and a second hash would split the files over the GPUs unevenly again"},
	{what: "one placement bound", owner: "place.go", count: anyCount, use: ident("shareNum", "shareDen"),
		why: "a host's GPUs and the fleet's hosts spill by one bound, serve.OverShare (internal/serve/place.go): a second copy of the 1+ε slack lets the two levels drift apart"},
}

func TestStructureCensus(t *testing.T) {
	fset := token.NewFileSet()
	files, parsed := parseTree(t, fset)
	for _, r := range structureRules {
		dirName := cmp.Or(r.dir, "the tree")
		var scope []string
		for _, path := range files {
			dir := filepath.ToSlash(filepath.Dir(path))
			if (r.dir == "" || dir == r.dir) && !strings.HasSuffix(path, "_test.go") &&
				(r.except == "" || dir != r.except && !strings.HasPrefix(dir, r.except+"/")) {
				scope = append(scope, path)
			}
		}
		if len(scope) == 0 {
			t.Errorf("%s: %s has no non-test Go files: the row checks nothing", r.what, dirName)
			continue
		}

		// An owner that is a file holds the uses anywhere in it; otherwise
		// each owning function must be declared in the rule's files.
		byFile := strings.HasSuffix(r.owner, ".go")
		owners := strings.Fields(r.owner)
		declared := map[string]bool{}
		uses := map[string][]string{} // function or file → its uses, spelled with their positions
		for _, path := range scope {
			declared[filepath.Base(path)] = true
			for _, d := range parsed[path].Decls {
				where := "package scope"
				if fd, ok := d.(*ast.FuncDecl); ok {
					where = fd.Name.Name
					declared[where] = true
				}
				if byFile {
					where = filepath.Base(path)
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if n == nil {
						return false
					}
					if hit := r.use.hit(n); hit != "" {
						uses[where] = append(uses[where], hit+" at "+fset.Position(n.Pos()).String())
					}
					return true
				})
			}
		}
		for _, o := range owners {
			if !declared[o] {
				t.Errorf("%s: owner %s is not declared in %s: the row checks nothing", r.what, o, dirName)
			}
		}

		allowed := "only " + strings.Join(owners, " and ") + " may"
		if len(owners) == 0 {
			allowed = "nothing may"
		}
		for where, at := range uses {
			if !slices.Contains(owners, where) {
				t.Errorf("%s: %s uses %s; %s, because %s",
					r.what, where, strings.Join(at, ", "), allowed, r.why)
			}
		}
		for _, o := range owners {
			if r.count != anyCount && len(uses[o]) != r.count {
				t.Errorf("%s: %s uses %s %d times, want %d, because %s",
					r.what, o, r.use.spell, len(uses[o]), r.count, r.why)
			}
		}
		t.Logf("%-30s %s: %s, in %s", r.what, dirName, r.use.spell, cmp.Or(r.owner, "nothing"))
	}
}
