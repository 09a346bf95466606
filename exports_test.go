package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// binaryTrees are the trees whose non-test files build a binary: the
// daemon and CLIs, the examples, and the benchmark. A name used in any
// of them has a caller that ships.
var binaryTrees = []string{"internal", "cmd", "examples", "bench"}

// apiTrees are the trees whose exported declarations the guard checks.
var apiTrees = map[string]bool{"internal": true, "cmd": true}

// interfaceMethods are method names the standard library calls through
// an interface (fmt.Stringer, error, json.Marshaler and Unmarshaler,
// http.Handler, http.ResponseWriter, http.Flusher, io.Writer,
// io.Closer, sort.Interface, errors.Is and Unwrap, flag.Value). Such a
// method has a caller the source never spells out.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "Header": true, "WriteHeader": true, "Flush": true,
	"Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true,
	"Set": true,
}

// exportAllowlist names the exports kept with no caller in a binary,
// keyed as the guard prints them, "<dir>.<Recv>.<Name>", with the
// reason. An entry the guard would not flag fails the test, so the list
// cannot outlive its reasons.
var exportAllowlist = map[string]string{
	"internal/graph.Graph.TopoSortFiltered": "parity reference: graph's and transform's SubDAG tests, flow's dense reference sweep and gradient's longest-path oracle check the sparse order against this full-graph sort",
	"internal/flow.Usage.TotalCost":         "parity reference: gradient's carried-state and reference-step tests compare the engine's fused cost with this unfused A = Y + εD bit for bit",
}

// TestEveryExportHasABinaryCaller fails on an exported function, method,
// type, var or const declared in a non-test file under internal/ or
// cmd/ whose name appears in no non-test file of a binary tree except
// as its own declaration. Such a name is test-only API in the
// production tree: it moves into its package's export_test.go, or it
// goes. A use in the declaring file counts, since the result type of an
// exported function is API even where nothing else names it. The check
// is by name, so a name shared with one used elsewhere passes: it errs
// towards silence, never towards a false failure.
func TestEveryExportHasABinaryCaller(t *testing.T) {
	type decl struct{ key, file string }
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range binaryTrees {
		parseNonTest(t, fset, root, func(path string, f *ast.File) {
			declared := map[*ast.Ident]bool{}
			add := func(recv string, id *ast.Ident) {
				declared[id] = true
				if apiTrees[root] && id.IsExported() {
					decls = append(decls, decl{filepath.ToSlash(filepath.Dir(path)) + "." + recv + id.Name, path})
				}
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add("", d.Name)
					} else if !interfaceMethods[d.Name.Name] {
						add(recvName(d.Recv.List[0].Type)+".", d.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add("", s.Name)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add("", n)
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !declared[id] {
					used[id.Name] = true
				}
				return true
			})
		})
	}

	flagged := map[string]bool{}
	var orphans []string
	for _, d := range decls {
		if used[d.key[strings.LastIndexByte(d.key, '.')+1:]] {
			continue
		}
		flagged[d.key] = true
		if _, ok := exportAllowlist[d.key]; !ok {
			orphans = append(orphans, d.file+": "+d.key)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("exported, but no binary uses it: %s", o)
	}
	for key := range exportAllowlist {
		if !flagged[key] {
			t.Errorf("allowlist entry %s is stale: the guard does not flag it", key)
		}
	}
}

// optionAllowlist names the option fields kept with no setter in a
// binary, keyed as TestEveryOptionHasASetter prints them,
// "<dir>.<Type>.<Field>", with the reason. An entry the guard would not
// flag fails the test.
var optionAllowlist = map[string]string{
	"internal/backpressure.Config.BufferCap": "the §6 baseline's source-buffer cap: its tests sweep it, the experiments run the default",
	"internal/backpressure.Config.Damping":   "the §6 baseline's transfer damping: its tests sweep it (1 is the undamped variant), the experiments run the default",
}

// TestEveryOptionHasASetter fails on an exported field of an exported
// struct type named *Options or *Config, declared in a non-test file
// under internal/ or cmd/, that no non-test file of a binary tree sets
// by name — as a composite-literal key, or on the left of an
// assignment or an increment — other than the file declaring it. Such a
// knob is one value in every binary: it becomes a constant, or it goes.
// Like TestEveryExportHasABinaryCaller the check is by name, so it errs
// towards silence: a field sharing its name with one set elsewhere
// passes.
func TestEveryOptionHasASetter(t *testing.T) {
	type field struct{ key, file, name string }
	var fields []field
	setBy := map[string]map[string]bool{} // field name → files setting it
	set := func(path string, e ast.Expr) {
		var name string
		switch e := e.(type) {
		case *ast.Ident:
			name = e.Name
		case *ast.SelectorExpr:
			name = e.Sel.Name
		default:
			return
		}
		if setBy[name] == nil {
			setBy[name] = map[string]bool{}
		}
		setBy[name][path] = true
	}
	fset := token.NewFileSet()
	for _, root := range binaryTrees {
		parseNonTest(t, fset, root, func(path string, f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					name := n.Name.Name
					if !ok || !apiTrees[root] || !n.Name.IsExported() ||
						!strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Config") {
						break
					}
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								key := filepath.ToSlash(filepath.Dir(path)) + "." + name + "." + id.Name
								fields = append(fields, field{key, path, id.Name})
							}
						}
					}
				case *ast.KeyValueExpr:
					set(path, n.Key)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if n.Tok != token.DEFINE {
							set(path, lhs)
						}
					}
				case *ast.IncDecStmt:
					set(path, n.X)
				}
				return true
			})
		})
	}

	flagged := map[string]bool{}
	var unset []string
	for _, f := range fields {
		elsewhere := false
		for file := range setBy[f.name] {
			elsewhere = elsewhere || file != f.file
		}
		if elsewhere {
			continue
		}
		flagged[f.key] = true
		if _, ok := optionAllowlist[f.key]; !ok {
			unset = append(unset, f.file+": "+f.key)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("option field, but no binary sets it: %s", u)
	}
	for key := range optionAllowlist {
		if !flagged[key] {
			t.Errorf("allowlist entry %s is stale: the guard does not flag it", key)
		}
	}
}

// parseNonTest parses every non-test Go file under root into fset,
// testdata excluded, and calls fn with its path and syntax tree.
func parseNonTest(t *testing.T, fset *token.FileSet, root string, fn func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
