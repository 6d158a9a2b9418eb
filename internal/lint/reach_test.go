package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/uwsdr/tinysdr/internal/lint"
	"github.com/uwsdr/tinysdr/internal/lint/analysistest"
)

// The reachability gate: every package-level func, type, method and var
// outside test files must be reachable from a root. The roots are the
// main and init functions of every package, the exported declarations of
// the tinysdr facade, and whatever the benchmark module under sdrbench/
// calls. A method is reached in one of two ways: a reached declaration
// references it (a call, a method value or a method expression), or
// interface dispatch can call it. Dispatch can call a method of a reached
// type when its type, or its pointer, has every method of some interface
// that declares the method's name, and that interface is declared outside
// the loaded packages (error, fmt.Stringer, encoding.BinaryMarshaler and
// the other hooks the standard library calls) or loaded code calls the
// method through it; an interface literal belongs to the package that
// spells it. Methods are matched by name and by signature, written
// as type strings without parameter names: each package is type-checked
// against export data, so the same interface is a different object in
// every package that imports it. Constants are exempt: datasheet values
// and wire enumerations document the hardware whether or not a code path
// reads them.

const modulePath = "github.com/uwsdr/tinysdr"

// testReferences are the extra roots: declarations only tests use. Most
// are reference implementations a test compares against (an image check
// names one of the tests that use it); the analyzer fixture harness is
// what the named tests drive. Each entry names that test.
var testReferences = map[string]string{
	modulePath + "/internal/dsp.Dechirp":    "TestDechirpTransformIntoMatchesUnfused",
	modulePath + "/internal/dsp.FoldBins":   "TestFoldPeakIntoMatchesUnfused",
	modulePath + "/internal/dsp.Magnitudes": "TestFoldPeakIntoMatchesUnfused",
	modulePath + "/internal/dsp.PeakBin":    "TestDechirpPeakDominance",
	modulePath + "/internal/dsp.FFT":        "TestFFTMatchesNaiveDFT",
	modulePath + "/internal/dsp.IFFT":       "TestIFFTInvertsFFT",

	modulePath + "/internal/iq.DecodeInt16":                 "TestDecodeInt16IntoMatchesDecode",
	modulePath + "/internal/lzo.Decompress":                 "TestRoundTripRandomProperty",
	modulePath + "/internal/lzo.DecompressBlocks":           "TestBlockPipeline30KB",
	modulePath + "/internal/lint/analysistest.Run":          "TestNoAllocIntoFixtures",
	modulePath + "/internal/lint/analysistest.LoadFixtures": "TestWaiverMechanism",

	modulePath + "/internal/ble.Demodulator.DemodBits": "TestStreamBitsMatchesDemodBits",
	modulePath + "/internal/eval.Adaptive.MinTrials":   "TestAdaptiveSaturatedStopsAtMinTrials",
	modulePath + "/internal/ota.Node.VerifyImage":      "TestBroadcastDeliversExactImages",
}

// declKey names a package-level declaration: "pkg.Name" or, for a method,
// "pkg.Recv.Name" with the receiver's base type name.
func declKey(pkg, recv, name string) string {
	if recv != "" {
		return pkg + "." + recv + "." + name
	}
	return pkg + "." + name
}

// objKey maps a referenced object to its declKey, or "" when the object
// is not a package-level declaration (locals, fields, builtins).
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			break
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		return declKey(o.Pkg().Path(), named.Origin().Obj().Name(), o.Name())
	case *types.Var:
		obj = o.Origin()
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return declKey(obj.Pkg().Path(), "", obj.Name())
}

// decl is one package-level declaration and what it references.
type decl struct {
	pos  token.Position
	kind string // "func", "method", "type", "var", "const"
	refs []string
	// methods is a named non-interface type's method set, its pointer's
	// and promoted methods included, by name.
	methods map[string]method
}

// method is one entry of a method set: its signature (see sigString) and
// the key of the declaration that provides it.
type method struct {
	sig, key string
}

// iface is one interface type the loaded packages spell or import.
type iface struct {
	pkg     string // the path of the package that declares or spells it
	methods map[string]method
}

// graph is the reference graph of every loaded package-level declaration.
type graph struct {
	decls map[string]*decl
	roots []string
	// loaded holds the paths of the loaded packages.
	loaded map[string]bool
	// ifaces lists, under each method name, the interface types that
	// declare it; ifaceIDs holds the type string of each, so an interface
	// seen from many packages is listed once.
	ifaces   map[string][]*iface
	ifaceIDs map[string]bool
	// called holds the keys (see ifaceMethodKey) of the interface methods
	// loaded code calls, takes as a method value or names in a method
	// expression.
	called map[string]bool
}

// newGraph returns an empty graph that knows the universe error.
func newGraph() *graph {
	g := &graph{decls: map[string]*decl{}, loaded: map[string]bool{},
		ifaces: map[string][]*iface{}, ifaceIDs: map[string]bool{}, called: map[string]bool{}}
	g.addIface(types.Universe.Lookup("error").Type(), "")
	return g
}

// pathQualifier spells every package by its import path.
func pathQualifier(p *types.Package) string { return p.Path() }

// sigString renders a method signature as type strings without parameter
// names, so the same method reads the same in every package's type-check.
func sigString(sig *types.Signature) string {
	unnamed := func(t *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, t.Len())
		for i := range vars {
			vars[i] = types.NewParam(token.NoPos, nil, "", t.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	return types.TypeString(types.NewSignatureType(nil, nil, nil,
		unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic()), pathQualifier)
}

// ifaceMethodKey names an interface method the same way where its
// interface is spelled and at every call through it: its objKey, or for
// a literal interface (and error), the literal's type string and the name.
func ifaceMethodKey(fn *types.Func) string {
	if k := objKey(fn); k != "" {
		return k
	}
	return types.TypeString(fn.Type().(*types.Signature).Recv().Type(), pathQualifier) + "." + fn.Name()
}

// methodSet returns the method set of *t by name.
func methodSet(t types.Type) map[string]method {
	ms := types.NewMethodSet(types.NewPointer(t))
	out := make(map[string]method, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		fn := ms.At(i).Obj().(*types.Func)
		out[fn.Name()] = method{sig: sigString(fn.Type().(*types.Signature)), key: objKey(fn)}
	}
	return out
}

// refsOf collects the declKeys of every object the node references.
func refsOf(info *types.Info, n ast.Node) []string {
	var refs []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if k := objKey(info.Uses[id]); k != "" {
				refs = append(refs, k)
			}
		}
		return true
	})
	return refs
}

// recvName is the base type name of a method receiver expression.
func recvName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// add records every package-level declaration of pkg in g. Main and init
// functions are roots, and so is every exported declaration of the facade.
func (g *graph) add(fset *token.FileSet, pkg *lint.Package) {
	path := pkg.Types.Path()
	exported := path == modulePath
	g.loaded[path] = true
	put := func(key, kind string, node ast.Node, pos token.Pos) *decl {
		d := &decl{pos: fset.Position(pos), kind: kind, refs: refsOf(pkg.Info, node)}
		g.decls[key] = d
		return d
	}
	for _, f := range pkg.Files {
		for _, node := range f.Decls {
			switch dn := node.(type) {
			case *ast.FuncDecl:
				name := dn.Name.Name
				if dn.Recv == nil {
					put(declKey(path, "", name), "func", dn, dn.Pos())
					if name == "init" || (name == "main" && pkg.Types.Name() == "main") ||
						(exported && ast.IsExported(name)) {
						g.roots = append(g.roots, declKey(path, "", name))
					}
					continue
				}
				put(declKey(path, recvName(dn.Recv.List[0].Type), name), "method", dn, dn.Pos())
			case *ast.GenDecl:
				for _, spec := range dn.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						d := put(declKey(path, "", s.Name.Name), "type", s, s.Pos())
						if t := pkg.Info.Defs[s.Name].Type(); !types.IsInterface(t) {
							d.methods = methodSet(t)
						}
						if exported && ast.IsExported(s.Name.Name) {
							g.roots = append(g.roots, declKey(path, "", s.Name.Name))
						}
					case *ast.ValueSpec:
						kind := "var"
						if dn.Tok == token.CONST {
							kind = "const"
						}
						for _, id := range s.Names {
							if id.Name == "_" {
								// A blank var is evaluated at package init.
								g.roots = append(g.roots, refsOf(pkg.Info, s)...)
								continue
							}
							key := declKey(path, "", id.Name)
							put(key, kind, s, id.Pos())
							if exported && ast.IsExported(id.Name) {
								g.roots = append(g.roots, key)
							}
						}
					}
				}
			}
		}
	}
	for _, obj := range pkg.Info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				g.called[ifaceMethodKey(fn)] = true
			}
		}
	}
	g.addInterfaces(pkg)
}

// addIface records t if it is an interface type with methods. A named
// interface belongs to the package that declares it; a literal one,
// including the type expression of a named interface's declaration, to
// spelledIn, the package that spells it.
func (g *graph) addIface(t types.Type, spelledIn string) {
	t = types.Unalias(t)
	it, ok := t.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 {
		return
	}
	id := types.TypeString(t, pathQualifier)
	if g.ifaceIDs[id] {
		return
	}
	g.ifaceIDs[id] = true
	in := &iface{pkg: spelledIn, methods: map[string]method{}}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		in.pkg = n.Obj().Pkg().Path()
	}
	for i := 0; i < it.NumMethods(); i++ {
		fn := it.Method(i)
		in.methods[fn.Name()] = method{sig: sigString(fn.Type().(*types.Signature)), key: ifaceMethodKey(fn)}
		g.ifaces[fn.Name()] = append(g.ifaces[fn.Name()], in)
	}
}

// addInterfaces records every interface type pkg spells, named or
// literal, and every named interface type declared in the packages it
// imports, transitively.
func (g *graph) addInterfaces(pkg *lint.Package) {
	for _, tv := range pkg.Info.Types {
		if tv.IsType() {
			g.addIface(tv.Type, pkg.Types.Path())
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				g.addIface(tn.Type(), p.Path())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	walk(pkg.Types)
}

// dispatches reports whether interface dispatch can call the method name
// of a type with method set ms: some interface that declares the name has
// all its methods in ms, and either loaded code calls the method through
// that interface or the interface is declared outside the loaded packages.
func (g *graph) dispatches(ms map[string]method, name string) bool {
	for _, it := range g.ifaces[name] {
		if !g.loaded[it.pkg] || g.called[it.methods[name].key] {
			if implements(ms, it) {
				return true
			}
		}
	}
	return false
}

// implements reports whether ms has every method of it.
func implements(ms map[string]method, it *iface) bool {
	for name, m := range it.methods {
		if ms[name].sig != m.sig {
			return false
		}
	}
	return true
}

// reach marks everything reachable from the roots.
func (g *graph) reach() map[string]bool {
	seen := map[string]bool{}
	stack := append([]string(nil), g.roots...)
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[k] {
			continue
		}
		seen[k] = true
		if d := g.decls[k]; d != nil {
			stack = append(stack, d.refs...)
			for name, m := range d.methods {
				if g.dispatches(d.methods, name) {
					stack = append(stack, m.key)
				}
			}
		}
	}
	return seen
}

// unreachable lists, sorted, every func, type, method and var outside the
// benchmark module that no root reaches.
func (g *graph) unreachable() []string {
	seen := g.reach()
	var dead []string
	for key, d := range g.decls {
		// The benchmark module is a root, not a subject: its code changes
		// only with the benchmark.
		if seen[key] || d.kind == "const" || strings.HasPrefix(key, modulePath+"/sdrbench/") {
			continue
		}
		dead = append(dead, d.pos.String()+": "+d.kind+" "+key)
	}
	sort.Strings(dead)
	return dead
}

// TestEveryDeclarationIsReachable fails on any non-test func, type, method
// or var of the module that no root reaches. Delete dead code rather than
// allowlisting it; a testReferences entry is only for a reference
// implementation a named test compares against.
func TestEveryDeclarationIsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is not short")
	}
	root := filepath.Join("..", "..")
	g := newGraph()
	for _, dir := range []string{root, filepath.Join(root, "sdrbench")} {
		prog, err := lint.Load(dir, []string{"./..."})
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range prog.Packages {
			g.add(prog.Fset, pkg)
		}
	}
	for key, test := range testReferences {
		if g.decls[key] == nil {
			t.Errorf("testReferences entry %s (%s) names no declaration", key, test)
		}
		g.roots = append(g.roots, key)
	}
	for _, d := range g.unreachable() {
		t.Error("unreachable: " + d)
	}
}

// TestReachFlagsOnlyTheUncalledMethod runs the walker over the fixture
// program under testdata/src/reach: of its reachable type's methods it
// must flag exactly the three nothing calls (one plain, one named like
// rand.Source.Seed on a type that has both rand.Source names but not both
// signatures, one that implements an interface nothing calls through), and
// keep the one reached only through an interface, the String and Error
// hooks, the method value and the direct call.
func TestReachFlagsOnlyTheUncalledMethod(t *testing.T) {
	fset, pkgs := analysistest.LoadFixtures(t, filepath.Join("testdata", "src", "reach"))
	g := newGraph()
	for _, pkg := range pkgs {
		g.add(fset, pkg)
	}
	dead := g.unreachable()
	want := []string{"method app.square.Diagonal", "method app.square.Name", "method app.square.Seed"}
	if len(dead) != len(want) {
		t.Fatalf("unreachable = %q, want only %q", dead, want)
	}
	for i, d := range dead {
		if !strings.HasSuffix(d, ": "+want[i]) {
			t.Fatalf("unreachable = %q, want only %q", dead, want)
		}
	}
}
