package olgapro

// The dead-code guard: every function, method, type and package-level
// variable declared under internal/ must be used by some non-test code of the tree (benchmark/
// included) outside its own declaration, be a root, or carry a reason in
// deadAPIAllowed. Uses are resolved by go/types to the object they name,
// so a method that shares its name with live code is still found. Code
// only tests or Benchmark_ rows call is code the system does not run:
// delete it with its tests, or move it into the _test.go file that uses it.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadAPIAllowed names the declarations under internal/ that no non-test
// code uses, each with why it stays: a reference implementation that tests
// compare production code against, or a contract table that conformance
// tests pin. Keys are "<dir>.<Name>" for functions, types and variables and
// "<dir>.<Recv>.<Name>" for methods. An entry for live code is an error.
var deadAPIAllowed = map[string]string{
	"internal/gp.GP.Predict":          "reference prediction in the core tests",
	"internal/gp.GP.PosteriorCov":     "reference for PosteriorCovWith",
	"internal/gp.GP.SamplePosterior":  "posterior draws, the reference the band multiplier is checked against",
	"internal/gp.Sparse.Predict":      "reference for Sparse.PredictWith",
	"internal/kernel.Gram":            "reference for GramInto",
	"internal/ecdf.FromSortedShifted": "reference for SetSortedShifted",
	"internal/ecdf.KSAgainst":         "KS distance to an analytic CDF, the tests' ground truth",
	"internal/mat.Cholesky.Factorize": "reference for Extend and FactorizeJittered",
	"internal/mat.Cholesky.Inverse":   "reference for InverseTo",
	"internal/mat.Cholesky.L":         "dense factor, the reference for reconstruction checks",
	"internal/mat.Cholesky.SolveVec":  "reference for SolveVecTo",
	"internal/mat.Matrix.MulVec":      "reference for the residual checks of the solvers",
	"internal/mat.Mul":                "reference for the reconstruction checks of the factorizations",
	"internal/rtree.Tree.All":         "full scan, the reference the search tests compare against",
	"internal/server/wire.Routes":     "contract table: the routes docs/api.md must list, pinned by TestAPIDocConformance",
	"internal/server/wire.ErrorCodes": "contract table: the error codes docs/api.md must list and the handler fuzz targets accept",
}

// deadModule is a module the guard loads: its directory and module path.
type deadModule struct{ dir, path string }

func TestNoDeadInternalAPI(t *testing.T) {
	dead, err := deadCode([]deadModule{{".", "olgapro"}, {"benchmark", "olgapro/benchmark"}},
		[]string{"olgapro", "olgapro/client"})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range sortedKeys(dead) {
		if _, ok := deadAPIAllowed[key]; !ok {
			t.Errorf("%s (%s) is used by no non-test code: delete it, move it into the _test.go file that uses it, or allow it with a reason", key, dead[key])
		}
	}
	for key := range deadAPIAllowed {
		if _, ok := dead[key]; !ok {
			t.Errorf("deadAPIAllowed names %s, which is live or not a declaration under internal/: drop the entry", key)
		}
	}
}

// TestDeadCodeGuardFixture runs the guard over testdata/deadcode, whose
// internal package holds one declaration of each shape a name-based guard
// misses, and one that only a generic interface keeps live.
func TestDeadCodeGuardFixture(t *testing.T) {
	dead, err := deadCode([]deadModule{{"testdata/deadcode", "fixture"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/fix.Exact.Warm",   // (a) called only from a Benchmark_ function
		"internal/fix.Slow",         // (c) used only as the receiver of its own methods,
		"internal/fix.Slow.Dim",     // and the methods of a dead type go with it
		"internal/fix.Slow.Predict", //
		"internal/fix.Sparse.Fit",   // (b) shares its name with the live Exact.Fit
	}
	// (d), lineIter.Next, is live only through fix.Source[string].
	if got := sortedKeys(dead); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("dead declarations:\n got %v\nwant %v", got, want)
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// deadCode type-checks every non-test package of mods, standard library
// imports from source, and returns the functions, methods, types and
// package-level variables declared under a module's internal/ directory
// that are dead, keyed as deadAPIAllowed is, with the file each sits in. A declaration is dead
// unless some non-test code uses it outside its own declaration or it is
// a root: an exported method of a type that one of the api packages
// exports, or a method that makes its receiver type implement an
// interface of the program or the standard library. A type's uses in the
// receivers and bodies of its own methods do not count, and the methods
// of a dead type are dead.
func deadCode(mods []deadModule, api []string) (map[string]string, error) {
	l := &deadLoader{fset: token.NewFileSet(), mods: mods, pkgs: map[string]*deadPkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	for _, m := range mods {
		err := filepath.WalkDir(m.dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if p != m.dir && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || l.isModule(p)) {
				return filepath.SkipDir
			}
			rel, _ := filepath.Rel(m.dir, p)
			_, err = l.Import(path.Join(m.path, filepath.ToSlash(rel)))
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	// Declarations under internal/, and the spans their own uses sit in.
	type decl struct {
		key, file string
		own       [][2]token.Pos
		recv      *types.TypeName // a method's receiver base type
	}
	decls := map[types.Object]*decl{}
	var named []*types.TypeName
	var internal []*deadPkg
	for _, p := range l.order {
		if strings.HasPrefix(p.rel, "internal/") {
			internal = append(internal, p)
		}
	}
	newDecl := func(p *deadPkg, key string, n ast.Node) *decl {
		return &decl{key: p.rel + "." + key, file: l.fset.File(n.Pos()).Name(), own: [][2]token.Pos{{n.Pos(), n.End()}}}
	}
	for _, p := range internal {
		for _, f := range p.files {
			for _, dl := range f.Decls {
				gd, ok := dl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, s := range gd.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if gd.Tok == token.VAR && n.Name != "_" {
								decls[p.info.Defs[n]] = newDecl(p, n.Name, s)
							}
						}
					case *ast.TypeSpec:
						tn := p.info.Defs[s.Name].(*types.TypeName)
						decls[tn] = newDecl(p, s.Name.Name, s)
						if _, iface := tn.Type().Underlying().(*types.Interface); !iface && !tn.IsAlias() {
							named = append(named, tn)
						}
					}
				}
			}
		}
	}
	// Methods second, so their receiver types are declared.
	for _, p := range internal {
		for _, f := range p.files {
			for _, dl := range f.Decls {
				fd, ok := dl.(*ast.FuncDecl)
				if !ok || (fd.Recv == nil && fd.Name.Name == "init") {
					continue
				}
				d := newDecl(p, fd.Name.Name, fd)
				if fd.Recv != nil {
					d.recv = p.info.Uses[recvIdent(fd.Recv.List[0].Type)].(*types.TypeName)
					d.key = p.rel + "." + d.recv.Name() + "." + fd.Name.Name
					// A type's own methods do not use it.
					decls[d.recv].own = append(decls[d.recv].own, d.own[0])
				}
				decls[p.info.Defs[fd.Name]] = d
			}
		}
	}
	if err := l.err(); err != nil {
		return nil, err
	}

	live := map[types.Object]bool{}
	for _, p := range l.order {
		for id, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			d := decls[obj]
			if d == nil || live[obj] {
				continue
			}
			inOwn := false
			for _, s := range d.own {
				inOwn = inOwn || (s[0] <= id.Pos() && id.Pos() < s[1])
			}
			live[obj] = !inOwn
		}
	}
	for _, ap := range api {
		p := l.pkgs[ap]
		if p == nil {
			return nil, fmt.Errorf("api package %s is not in the program", ap)
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
				ms := types.NewMethodSet(types.NewPointer(types.Unalias(tn.Type())))
				for i := 0; i < ms.Len(); i++ {
					if m := ms.At(i).Obj(); m.Exported() {
						live[m.(*types.Func).Origin()] = true
					}
				}
			}
		}
	}
	ifaces := l.interfaces()
	for _, tn := range named {
		for _, iface := range ifaces {
			for _, v := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				if !types.Implements(v, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(v, true, iface.Method(i).Pkg(), iface.Method(i).Name())
					live[m.(*types.Func).Origin()] = true
				}
				break
			}
		}
	}

	dead := map[string]string{}
	for obj, d := range decls {
		if !live[obj] || (d.recv != nil && !live[d.recv]) {
			dead[d.key] = d.file
		}
	}
	return dead, nil
}

// recvIdent returns the identifier of a receiver's base type, without
// pointer or type parameters.
func recvIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return x.(*ast.Ident)
		}
	}
}

// deadLoader type-checks the packages of its modules from source, in
// dependency order, and hands every other import path to the standard
// library's source importer.
type deadLoader struct {
	fset  *token.FileSet
	std   types.Importer
	mods  []deadModule
	pkgs  map[string]*deadPkg
	order []*deadPkg
	errs  []error
}

type deadPkg struct {
	rel   string // directory relative to its module, slash-separated
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func (l *deadLoader) isModule(dir string) bool {
	for _, m := range l.mods {
		if filepath.Clean(dir) == filepath.Clean(m.dir) {
			return true
		}
	}
	return false
}

func (l *deadLoader) Import(importPath string) (*types.Package, error) {
	if p := l.pkgs[importPath]; p != nil {
		return p.pkg, nil
	}
	var mod *deadModule
	for i, m := range l.mods {
		if (importPath == m.path || strings.HasPrefix(importPath, m.path+"/")) && (mod == nil || len(m.path) > len(mod.path)) {
			mod = &l.mods[i]
		}
	}
	if mod == nil {
		return l.std.Import(importPath)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, mod.path), "/")
	bp, err := build.ImportDir(filepath.Join(mod.dir, filepath.FromSlash(rel)), 0)
	if err != nil {
		return nil, err
	}
	p := &deadPkg{rel: rel, info: &types.Info{
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
		Types:     map[ast.Expr]types.TypeAndValue{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err) }}
	p.pkg, _ = conf.Check(importPath, l.fset, p.files, p.info)
	l.pkgs[importPath] = p
	l.order = append(l.order, p)
	return p.pkg, nil
}

func (l *deadLoader) err() error {
	if len(l.errs) > 0 {
		return fmt.Errorf("type-checking: %v (and %d more)", l.errs[0], len(l.errs)-1)
	}
	return nil
}

// interfaces returns every interface with methods that the program or the
// standard library packages it imports declare, the universe's error, the
// interface literals of the program, and every instance of a generic
// interface it names, directly or in the signature of an instantiated
// generic function.
func (l *deadLoader) interfaces() []*types.Interface {
	var ifaces []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					add(n)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	var inst func(types.Type)
	inst = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			if t.TypeArgs().Len() > 0 {
				add(t)
			}
		case *types.Pointer:
			inst(t.Elem())
		case *types.Slice:
			inst(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					inst(tup.At(i).Type())
				}
			}
		}
	}
	for _, p := range l.order {
		walk(p.pkg)
		for _, in := range p.info.Instances {
			inst(in.Type)
		}
		for e, tv := range p.info.Types {
			if _, lit := e.(*ast.InterfaceType); lit {
				add(tv.Type)
			}
		}
	}
	return ifaces
}
