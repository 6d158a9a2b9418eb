// Package lint is the tinysdr-vet analyzer suite: custom static checks
// that compile the repo's three load-bearing conventions — zero-alloc
// *Into hot paths, seed-determinism of every random draw, and concurrency
// confined to internal/par — into CI. cmd/tinysdr-vet runs the suite
// (plus the stock `go vet` passes) over ./...; see PERFORMANCE.md
// ("Static analysis & invariants").
package lint

import (
	"bufio"
	"fmt"
	"go/token"
	"sort"
	"strings"

	"github.com/uwsdr/tinysdr/internal/lint/analysis"
)

// Suite returns the four tinysdr analyzers in their canonical order.
func Suite() []*Analyzer {
	return []*Analyzer{NoAllocInto, Determinism, GoroutineHygiene, SeedFlow}
}

// Analyzer re-exports the shim's analyzer type as the package's public
// face (cmd/tinysdr-vet runs the Suite).
type Analyzer = analysis.Analyzer

// Diag is one finding after waiver filtering, with positions resolved.
type Diag struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Result is one suite run: surviving diagnostics plus how many waivers
// each token consumed (the ratchet recorded in testdata/vet.golden).
type Result struct {
	Diags []Diag
	// Waivers maps waiver token -> number of diagnostics it suppressed.
	Waivers map[string]int
}

// Run loads the packages matched by patterns under the module rooted at
// dir and applies every analyzer, resolving waivers. The returned
// diagnostics include driver-level findings: waivers with no reason,
// waivers that suppressed nothing, and waivers with unknown tokens.
func Run(dir string, patterns []string, analyzers []*Analyzer) (*Result, error) {
	prog, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	return RunPackages(prog.Fset, prog.Packages, analyzers)
}

// RunPackages applies the analyzers to already-loaded packages — the entry
// point analysistest uses to lint fixture packages that live outside the
// module's package graph.
func RunPackages(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) (*Result, error) {
	res := &Result{Waivers: map[string]int{}}
	for _, az := range analyzers {
		res.Waivers[az.Waiver] = 0
	}
	for _, pkg := range pkgs {
		diags, err := runPackage(fset, pkg, analyzers, res.Waivers)
		if err != nil {
			return nil, err
		}
		res.Diags = append(res.Diags, diags...)
	}
	sort.Slice(res.Diags, func(i, j int) bool {
		a, b := res.Diags[i], res.Diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
	return res, nil
}

// runPackage applies the analyzers to one loaded package and filters the
// raw diagnostics through the package's waivers, crediting used counts.
func runPackage(fset *token.FileSet, pkg *Package, analyzers []*Analyzer, used map[string]int) ([]Diag, error) {
	var waivers []*Waiver
	for _, f := range pkg.Files {
		waivers = append(waivers, collectWaivers(fset, f)...)
	}
	idx := waiverIndex(waivers)
	known := map[string]bool{}
	var out []Diag

	for _, az := range analyzers {
		known[az.Waiver] = true
		var raw []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  az,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(d analysis.Diagnostic) { raw = append(raw, d) },
		}
		if err := az.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %v", az.Name, pkg.Path, err)
		}
		for _, d := range raw {
			pos := fset.Position(d.Pos)
			if w, ok := idx[waiverKey{az.Waiver, pos.Filename, pos.Line}]; ok && w.Reason != "" {
				w.used = true
				used[az.Waiver]++
				continue
			}
			out = append(out, Diag{
				Analyzer: az.Name,
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Message:  d.Message,
			})
		}
	}

	// Driver-level findings: the waiver mechanism polices itself.
	for _, w := range waivers {
		switch {
		case !known[w.Token]:
			out = append(out, waiverDiag(w, fmt.Sprintf("unknown waiver token %q (valid: %s)", w.Token, strings.Join(waiverTokens(analyzers), ", "))))
		case w.Reason == "":
			out = append(out, waiverDiag(w, fmt.Sprintf("//lint:%s waiver requires a non-empty reason", w.Token)))
		case !w.used:
			out = append(out, waiverDiag(w, fmt.Sprintf("//lint:%s waiver suppresses nothing; delete it", w.Token)))
		}
	}
	return out, nil
}

func waiverDiag(w *Waiver, msg string) Diag {
	return Diag{Analyzer: "waiver", File: w.File, Line: w.Line, Col: 1, Message: msg}
}

func waiverTokens(analyzers []*Analyzer) []string {
	out := make([]string, 0, len(analyzers))
	for _, az := range analyzers {
		out = append(out, az.Waiver)
	}
	sort.Strings(out)
	return out
}

// FormatGolden renders the counts the golden file pins: total diagnostics
// (zero on a healthy tree) and per-token waiver consumption, so adding a
// waiver is a conscious, reviewed change.
func FormatGolden(res *Result) string {
	var b strings.Builder
	b.WriteString("# tinysdr-vet golden counts. Regenerate: go run ./cmd/tinysdr-vet -update-golden ./...\n")
	fmt.Fprintf(&b, "diagnostics %d\n", len(res.Diags))
	tokens := make([]string, 0, len(res.Waivers))
	for tok := range res.Waivers {
		tokens = append(tokens, tok)
	}
	sort.Strings(tokens)
	for _, tok := range tokens {
		fmt.Fprintf(&b, "waivers %s %d\n", tok, res.Waivers[tok])
	}
	return b.String()
}

// CompareGolden diffs a run against the committed golden counts. Any
// difference — new diagnostics, or waiver counts drifting in either
// direction — is an error naming the regeneration command.
func CompareGolden(res *Result, golden string) error {
	want := map[string]int{}
	sc := bufio.NewScanner(strings.NewReader(golden))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var key string
		var n int
		switch fields := strings.Fields(line); len(fields) {
		case 2:
			key = fields[0]
			fmt.Sscanf(fields[1], "%d", &n)
		case 3:
			key = fields[0] + " " + fields[1]
			fmt.Sscanf(fields[2], "%d", &n)
		default:
			return fmt.Errorf("lint: malformed golden line %q", line)
		}
		want[key] = n
	}
	var errs []string
	if got := len(res.Diags); got != want["diagnostics"] {
		errs = append(errs, fmt.Sprintf("diagnostics: got %d, golden %d", got, want["diagnostics"]))
	}
	tokens := make([]string, 0, len(res.Waivers))
	for tok := range res.Waivers {
		tokens = append(tokens, tok)
	}
	sort.Strings(tokens)
	for _, tok := range tokens {
		if got, w := res.Waivers[tok], want["waivers "+tok]; got != w {
			errs = append(errs, fmt.Sprintf("waivers %s: got %d, golden %d", tok, got, w))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("lint: counts drifted from vet.golden (%s); if intentional, regenerate with -update-golden",
			strings.Join(errs, "; "))
	}
	return nil
}
