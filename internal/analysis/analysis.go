// Package analysis is the core of chainvet, the repo's static-analysis
// suite: a deliberately small mirror of the golang.org/x/tools
// go/analysis vocabulary (Analyzer, Pass, Diagnostic) built on the
// standard library's go/ast and go/types, so the checker carries zero
// module dependencies.
//
// The suite machine-checks invariants that the design docs previously
// only stated in prose. The paper's protocol (PODC'17 Dickerson-
// Gazzillo-Herlihy-Koskinen) is only sound if validators replay the
// miner's happens-before schedule deterministically: any nondeterminism
// that leaks into a schedule, commitment hash or wire encoding is a
// consensus-splitting bug. The passes under internal/analysis/passes
// each encode one such invariant:
//
//	detmap    — no unsorted map iteration in consensus-critical packages
//	walltime  — no wall-clock or math/rand reads in those packages
//	nogob     — no encoding/gob imports outside the SLO bench's
//	            gob yardstick
//	lockscope — short-scope bookkeeping mutexes (fields named "mu") are
//	            never held across execution, I/O or channel operations
//	poolpair  — every sync.Pool acquire has a Put/Release on all paths
//	errsync   — no silently discarded Close/Sync errors in the
//	            persistence layer
//
// Findings are suppressed only by an in-tree directive that names the
// pass and carries a written justification:
//
//	//chainvet:allow(detmap) holders is a pure ∀-predicate; iteration
//	// order cannot reach a schedule.
//
// See directive.go for the exact placement rules and docs/LINTS.md for
// the per-pass rationale.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check. Run inspects a single
// type-checked package through the Pass and reports findings via
// Pass.Reportf; it returns an error only for internal failures, never
// for findings.
type Analyzer struct {
	// Name identifies the pass in findings and in
	// //chainvet:allow(<name>) directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: the invariant and why
	// violating it is a bug.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed files, comments included.
	Files []*ast.File
	// Pkg is the type-checked package; Pkg.Path is the canonical import
	// path (for a "pkg [pkg.test]" vet unit, the part before the space).
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pass:    p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// PkgBase returns the last element of the package's canonical import
// path — what the repo-specific package predicates match on.
func (p *Pass) PkgBase() string { return pathBase(p.Pkg.Path()) }

// IsTestFile reports whether the file sits in a _test.go file. The
// determinism invariants bind production code; tests may freely use
// wall clocks, randomness and unsorted iteration.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// SourceFiles returns the package's non-test files, the set every pass
// inspects.
func (p *Pass) SourceFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		if !p.IsTestFile(f) {
			out = append(out, f)
		}
	}
	return out
}

// ConsensusCritical reports whether a package (by path base) is one
// whose outputs feed schedules, commitments or wire encodings — the
// packages where detmap and walltime bind. The mempool qualifies
// because its selection order feeds block contents: admission verdicts
// and queue order must be deterministic in the submission sequence
// (the clock is injected, never read). The importer qualifies because
// its verdict election must depend only on block heights — a clock or
// iteration-order dependence could make two followers elect different
// first errors for the same bad window. The replica qualifies because
// it applies upstream blocks through validation and materializes
// historical state — any nondeterminism there is chain divergence on a
// follower.
func ConsensusCritical(base string) bool {
	switch base {
	case "engine", "stm", "sched", "chain", "validator", "miner", "mempool", "importer", "replica":
		return true
	}
	return false
}

// pathBase returns the last slash-separated element of an import path,
// with any vet test-variant suffix ("pkg [pkg.test]") stripped first.
func pathBase(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path
}

// A Diagnostic is one finding, positioned and attributed to its pass.
type Diagnostic struct {
	Pass    string         `json:"pass"`
	Pos     token.Position `json:"-"`
	Message string         `json:"message"`

	// Flattened position for the -json output mode.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// fill populates the flattened position fields from Pos.
func (d *Diagnostic) fill() {
	d.File, d.Line, d.Col = d.Pos.Filename, d.Pos.Line, d.Pos.Column
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Pass, d.Message)
}

// A Target is one type-checked package ready for analysis — the unit
// the driver, the vet-tool shim and the analysistest harness all hand
// to Run.
type Target struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Run applies every analyzer to the target and returns the raw
// findings (before directive filtering), sorted by position.
func Run(t *Target, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      t.Fset,
			Files:     t.Files,
			Pkg:       t.Pkg,
			TypesInfo: t.TypesInfo,
			report:    func(d Diagnostic) { d.fill(); diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	Sort(diags)
	return diags, nil
}

// Sort orders diagnostics by file, line, column, then pass name.
func Sort(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Pass < b.Pass
	})
}
