package gpufs_test

import (
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
	{"serve.PipelineConfig", "internal/serve", "pipeline.go", "PipelineConfig",
		[]string{"gpufs/internal/serve"}, []string{"serve.PipelineConfig"}},
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
	"params.Config.WarpSize":             true,
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

	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Hidden directories hold build copies; examples are not
			// callers (the simplicity-review guide's Options rule).
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "examples" || name == "artifacts") {
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
