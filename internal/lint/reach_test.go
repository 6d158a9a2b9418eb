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
// references it (a call, a method value or a method expression), or its
// receiver type is reached and its name is a method of some interface
// type that appears in the loaded packages or anything they import, or is
// the universe error. The second case keeps what interface dispatch and
// hooks such as String, Error and MarshalBinary call, which a reference
// walk cannot see. Constants are exempt: datasheet values and wire
// enumerations document the hardware whether or not a code path reads
// them.

const modulePath = "github.com/uwsdr/tinysdr"

// testReferences are the extra roots: declarations only tests use. Most
// are reference implementations a test compares against (an image check
// names one of the tests that use it); the analyzer fixture harness and
// the symbol-demod capability are what the named tests drive. Each entry
// names that test.
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
	modulePath + "/internal/phy.SymbolStreamer":             "TestSymbolDemodZeroAllocsThroughModem",
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
	pos     token.Position
	kind    string // "func", "method", "type", "var", "const"
	refs    []string
	methods []string // for a type: the keys of its methods
}

// graph is the reference graph of every loaded package-level declaration.
type graph struct {
	decls map[string]*decl
	roots []string
	// ifaceMethods holds the method names of every interface type the
	// loaded packages spell or import.
	ifaceMethods map[string]bool
}

// newGraph returns an empty graph that counts the universe error's Error
// as an interface method.
func newGraph() *graph {
	return &graph{decls: map[string]*decl{}, ifaceMethods: map[string]bool{"Error": true}}
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
	put := func(key, kind string, node ast.Node, pos token.Pos) {
		g.decls[key] = &decl{pos: fset.Position(pos), kind: kind, refs: refsOf(pkg.Info, node)}
	}
	var methods [][2]string // {type key, method key}
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
				recv := recvName(dn.Recv.List[0].Type)
				key := declKey(path, recv, name)
				put(key, "method", dn, dn.Pos())
				methods = append(methods, [2]string{declKey(path, "", recv), key})
			case *ast.GenDecl:
				for _, spec := range dn.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						put(declKey(path, "", s.Name.Name), "type", s, s.Pos())
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
	for _, m := range methods {
		if t := g.decls[m[0]]; t != nil {
			t.methods = append(t.methods, m[1])
		}
	}
	g.addInterfaces(pkg)
}

// addInterfaces records the method names of every interface type pkg
// spells, named or literal, and of every named interface type declared in
// the packages it imports, transitively.
func (g *graph) addInterfaces(pkg *lint.Package) {
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				g.ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	for _, tv := range pkg.Info.Types {
		if tv.IsType() {
			addIface(tv.Type)
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
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	walk(pkg.Types)
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
			for _, m := range d.methods {
				if g.ifaceMethods[m[strings.LastIndexByte(m, '.')+1:]] {
					stack = append(stack, m)
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
// must flag exactly the one nothing calls, and keep the one reached only
// through an interface, the String and Error hooks, and the method value.
func TestReachFlagsOnlyTheUncalledMethod(t *testing.T) {
	fset, pkgs := analysistest.LoadFixtures(t, filepath.Join("testdata", "src", "reach"))
	g := newGraph()
	for _, pkg := range pkgs {
		g.add(fset, pkg)
	}
	dead := g.unreachable()
	if len(dead) != 1 || !strings.HasSuffix(dead[0], ": method app.square.Diagonal") {
		t.Fatalf("unreachable = %q, want only method app.square.Diagonal", dead)
	}
}
