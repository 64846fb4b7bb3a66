package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportAllowlist names the exports under internal/ that no non-test file
// references and that stay anyway, each with its reason. Keys are
// "pkg.Name" or "pkg.Type.Method", pkg being the path under internal/.
// String, Error and Unwrap methods are allowed by name: fmt and errors
// call them through interfaces this scan does not see.
var exportAllowlist = map[string]string{
	"domain.Domain.Value": "the per-attribute decoding query's tests check packed keys and masks against",
}

// TestNoTestOnlyExports is a ratchet on the module's API: every exported
// identifier or method declared under internal/ (the analyzers' own
// packages aside) must be referenced by some non-test file of the module
// or of the benchmark module. The analyzers see one package at a time,
// so they cannot tell; this test type-checks every non-test source
// itself. A name's declaration, and a type's own method receivers, are
// not references. A method also counts as used when some non-test file
// calls an interface method it implements.
func TestNoTestOnlyExports(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	// go list -deps prints a package after its dependencies, so one pass
	// in this order type-checks each package after what it imports; the
	// benchmark module adds its own package and the few it alone imports.
	list := append(listPackages(t, root, "./..."), listPackages(t, filepath.Join(root, "benchmark"), ".")...)
	pkgs := map[string]listed{}
	for _, p := range list {
		pkgs[p.path] = p
	}

	fset := token.NewFileSet()
	exports := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		p, ok := pkgs[path]
		if !ok || p.export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(p.export)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if tp, ok := checked[path]; ok {
			return tp, nil
		}
		return exports.Import(path)
	})

	type source struct {
		path  string
		files []*ast.File
		info  *types.Info
	}
	var srcs []source
	for _, p := range list {
		if !inModule(p.path) || checked[p.path] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range p.files {
			f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp, GoVersion: "go1.24"}
		tp, err := conf.Check(p.path, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.path, err)
		}
		checked[p.path] = tp
		srcs = append(srcs, source{p.path, files, info})
	}

	// Candidates: exported names and methods declared under internal/.
	candidates := map[types.Object]string{}
	for _, s := range srcs {
		rel, ok := strings.CutPrefix(s.path, "repro/internal/")
		if !ok || rel == "analysis" || strings.HasPrefix(rel, "analysis/") {
			continue
		}
		for id, obj := range s.info.Defs {
			if obj == nil || !id.IsExported() || obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope() {
				continue
			}
			switch o := obj.(type) {
			case *types.Func:
				sig := o.Type().(*types.Signature)
				if recv := sig.Recv(); recv != nil {
					if n := recvName(recv.Type()); n != "" {
						candidates[obj] = rel + "." + n + "." + o.Name()
					}
				} else {
					candidates[obj] = rel + "." + o.Name()
				}
			case *types.TypeName, *types.Const:
				candidates[obj] = rel + "." + o.Name()
			case *types.Var:
				if !o.IsField() {
					candidates[obj] = rel + "." + o.Name()
				}
			}
		}
	}

	// References: every use outside the name's declaration and outside
	// method receivers, plus every interface method called.
	used := map[types.Object]bool{}
	var ifaceCalls []ifaceMethod
	for _, s := range srcs {
		receivers := map[*ast.Ident]bool{}
		for _, f := range s.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range s.info.Uses {
			if receivers[id] {
				continue
			}
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
				sig := o.Type().(*types.Signature)
				if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceCalls = append(ifaceCalls, ifaceMethod{o.Name(), recv.Type().Underlying().(*types.Interface)})
				}
				// A function outside the module that takes an interface
				// (sort.Sort, fmt.Fprintf) calls that interface's methods.
				if o.Pkg() != nil && !inModule(o.Pkg().Path()) {
					ifaceCalls = appendParamMethods(ifaceCalls, sig)
				}
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
		}
	}
	for obj := range candidates {
		fn, ok := obj.(*types.Func)
		if !ok || used[obj] {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil || types.IsInterface(recv.Type()) {
			continue
		}
		for _, im := range ifaceCalls {
			if im.name == fn.Name() && types.Implements(recv.Type(), im.iface) {
				used[obj] = true
				break
			}
		}
	}

	unused := map[string]token.Pos{}
	for obj, name := range candidates {
		if used[obj] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			switch fn.Name() {
			case "String", "Error", "Unwrap":
				continue
			}
		}
		unused[name] = obj.Pos()
	}
	for name := range exportAllowlist {
		if _, ok := unused[name]; !ok {
			t.Errorf("allowlist entry %s is no test-only export: remove it", name)
		}
		delete(unused, name)
	}
	for _, name := range slices.Sorted(maps.Keys(unused)) {
		t.Errorf("exported but referenced by no non-test file: %s (%s)", name, fset.Position(unused[name]))
	}
}

// ifaceMethod is an interface method some non-test code calls, or hands
// a value to a function outside the module that may call it.
type ifaceMethod struct {
	name  string
	iface *types.Interface
}

// appendParamMethods appends the methods of sig's interface parameters.
func appendParamMethods(calls []ifaceMethod, sig *types.Signature) []ifaceMethod {
	params := sig.Params()
	for i := range params.Len() {
		t := params.At(i).Type()
		if s, ok := t.(*types.Slice); ok && sig.Variadic() && i == params.Len()-1 {
			t = s.Elem()
		}
		if iface, ok := t.Underlying().(*types.Interface); ok {
			for m := range iface.Methods() {
				calls = append(calls, ifaceMethod{m.Name(), iface})
			}
		}
	}
	return calls
}

// inModule reports whether path is a package of this module or of the
// benchmark module nested in it.
func inModule(path string) bool { return path == "repro" || strings.HasPrefix(path, "repro/") }

// recvName is the name of a method's receiver type, through a pointer.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// listed is one package as go list reports it.
type listed struct {
	path, dir, export string
	files             []string
}

// listPackages runs go list over patterns in dir with their dependencies,
// building export data for every package (from the build cache once warm).
func listPackages(t *testing.T, dir, patterns string) []listed {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-f",
		"{{.ImportPath}}\t{{.Dir}}\t{{.Export}}\t{{join .GoFiles \" \"}}", patterns)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listed
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			t.Fatalf("go list: unexpected line %q", line)
		}
		pkgs = append(pkgs, listed{path: f[0], dir: f[1], export: f[2], files: strings.Fields(f[3])})
	}
	return pkgs
}
