package olgapro

// The dead-API guard: every exported function or method under internal/
// must be named somewhere in the tree's non-test Go code (benchmark/
// included) outside its own declaration, or carry a reason in
// deadAPIAllowed. A function only tests call is code the system does not
// run; delete it with its tests.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// deadAPIAllowed names the exported declarations under internal/ that no
// non-test code names, each with why it stays. Keys are
// "<dir>.<Name>" for functions and "<dir>.<Recv>.<Name>" for methods.
var deadAPIAllowed = map[string]string{
	// Methods that satisfy a standard interface.
	"internal/query.lexKeys.Less":      "sort.Interface",
	"internal/query.lexKeys.Swap":      "sort.Interface",
	"internal/query.tupleSource.Int63": "rand.Source",
	// Methods of types the olgapro package exports by alias.
	"internal/astro.Cosmology.Validate":       "public API: olgapro.Cosmology",
	"internal/core.Evaluator.Save":            "public API: olgapro.Evaluator",
	"internal/ecdf.Envelope.DiscrepancyBound": "public API: olgapro.Envelope; the allocating form of DiscrepancyBoundWith",
	"internal/query.Agg.Named":                "public API: olgapro.Agg",
	"internal/query.Agg.WithStat":             "public API: olgapro.Agg",
	"internal/query.Bounded.Width":            "public API: olgapro.Bounded",
	"internal/query.Plan.OrderBy":             "public API: olgapro.Plan",
	"internal/query.Plan.Pipe":                "public API: olgapro.Plan",
	"internal/query.Plan.Where":               "public API: olgapro.Plan",
	// Allocating or exact forms that tests use as references for the
	// scratch, blocked or incremental forms production runs.
	"internal/gp.GP.Predict":            "reference prediction in the core tests",
	"internal/gp.GP.PredictBatch":       "the band tests' grid predictions and the predict_batch_steady row",
	"internal/gp.GP.PosteriorCov":       "reference for PosteriorCovWith",
	"internal/gp.GP.SamplePosterior":    "posterior draws for the band tests",
	"internal/gp.Sparse.Predict":        "reference for Sparse.PredictWith",
	"internal/kernel.Gram":              "reference for GramInto",
	"internal/ecdf.FromSortedShifted":   "reference for SetSortedShifted",
	"internal/ecdf.KSAgainst":           "KS distance to an analytic CDF, the tests' ground truth",
	"internal/band.UpcrossProb":         "entry to the upcrossing sum ZAlpha bisects, checked against its per-term reference",
	"internal/fleet.Replicator.Fetches": "snapshot-fetch count the replicator tests assert on",
	"internal/mat.Cholesky.Factorize":   "reference for Extend and FactorizeJittered",
	"internal/mat.Cholesky.Inverse":     "reference for InverseTo",
	"internal/mat.Cholesky.L":           "dense factor for reconstruction checks",
	"internal/mat.Cholesky.SolveVec":    "reference for SolveVecTo",
	"internal/mat.Identity":             "test matrix",
	"internal/mat.Matrix.MaxAbs":        "test tolerance helper",
	"internal/mat.Matrix.MulVec":        "residual checks",
	"internal/mat.Mul":                  "reconstruction checks",
	"internal/mat.NewFromData":          "test matrix",
	"internal/rtree.NewRect":            "validating constructor the rtree tests build rectangles with",
	"internal/rtree.Tree.All":           "full scan the search tests compare against",
}

func TestNoDeadInternalAPI(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, name, file string }
	var decls []decl
	named := map[string]bool{} // identifiers named outside their own declaration
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, dl := range f.Decls {
			// A declaration does not name itself: its own name, and any
			// recursive call to it, are skipped.
			self := ""
			if fd, ok := dl.(*ast.FuncDecl); ok && internal && fd.Name.IsExported() {
				self = fd.Name.Name
				key := filepath.ToSlash(filepath.Dir(path)) + "."
				if fd.Recv != nil {
					key += recvName(fd.Recv.List[0].Type) + "."
				}
				decls = append(decls, decl{key + self, self, filepath.ToSlash(path)})
			}
			ast.Inspect(dl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name != self {
					named[id.Name] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		if _, ok := deadAPIAllowed[d.key]; !ok && !named[d.name] {
			t.Errorf("exported %s (%s) is named by no non-test code: delete it, or allow it with a reason", d.key, d.file)
		}
	}
	for k := range deadAPIAllowed {
		if !declared[k] {
			t.Errorf("deadAPIAllowed names %s, which is not an exported declaration under internal/", k)
		}
	}
}

// recvName returns the receiver's type name without pointer or type
// parameters.
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
