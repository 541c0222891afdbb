package lang_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/lang"
	"repro/internal/plan"
)

// FuzzCompile fuzzes the language front end, the last decoder of untrusted
// bytes: query text and template bindings arrive over the wire (cedr
// serve's register verb and its HTTP twin). Whatever the text, and whatever
// values its $parameters are bound to, lang.Compile and lang.Parse +
// lang.AnalyzeBound never panic and allocate at most a constant times the
// input (see compileBytes); an accepted query analyzes the same twice (its
// expression, PartitionAttr and PushKeyAttr); and plan.Prepare accepts
// exactly what plan.Compile accepts, failing with the same error. The seeds
// are every query literal in the module's Go files — examples, tests,
// benchmarks — and run under plain `go test`; CI fuzzes it with
//
//	go test -run '^$' -fuzz '^FuzzCompile$' -fuzztime 30s ./internal/lang
func FuzzCompile(f *testing.F) {
	for _, src := range moduleQueries(f) {
		f.Add(src, "m042", int64(7))
	}
	// Text that ends where a duration must follow read past its last token
	// and panicked (testdata has the fuzzer's UNLESS-index case).
	f.Add("EVENT E WHEN ANY(A) CONSISTENCY level(1,", "", int64(0))
	f.Fuzz(func(t *testing.T, src, s string, n int64) {
		size := uint64(len(src) + len(s))
		if got, bound := compileBytes(src, s, n), perByte*size+4096; got > bound {
			t.Fatalf("analyzing %d bytes allocated %d (bound %d)", size, got, bound)
		}
		if an, err := lang.Compile(src); err == nil {
			again, err := lang.Compile(src)
			if err != nil {
				t.Fatalf("accepted text refused the second time: %v", err)
			}
			sameAnalysis(t, an, again)
		}
		var opts []plan.Option
		if q, err := lang.Parse(src); err == nil {
			b := bind(q, s, n)
			opts = append(opts, plan.WithBindings(b))
			if an, err := lang.AnalyzeBound(q, b); err == nil {
				again, err := lang.AnalyzeBound(q, b)
				if err != nil {
					t.Fatalf("accepted bindings refused the second time: %v", err)
				}
				sameAnalysis(t, an, again)
			}
		}
		_, perr := plan.Prepare(src, opts...)
		_, cerr := plan.Compile(src, opts...)
		if errText(perr) != errText(cerr) {
			t.Fatalf("plan.Prepare: %v\nplan.Compile: %v", perr, cerr)
		}
	})
}

// perByte is what the allocation bound allows per byte of text and bound
// value. Measured, the front end allocates 150–250 bytes per input byte on
// every shape — the seeds, deep nesting, long alias lists, OUTPUT lists,
// unparseable text — except dense WHERE conjunctions, where each `AND
// {a.m = b.m}` of 16 bytes is a token run, an AST predicate, a classified
// predicate, a closure and a description: 337 B/byte at 16 KB of text, 390
// at 64 KB, 442 at 256 KB (growing ~26 B per doubling, the slices' and
// builders' geometric growth). 1 KiB per byte covers that at any size a
// registration can carry; what it rules out is allocation no input byte
// pays for — an error echoing its input many times over, or work quadratic
// in the text.
const perByte = 1 << 10

// compileBytes is the heap bytes the front end allocates for one input — a
// plain compile, then a parse and a bound analysis — the least of three
// measurements, since a fuzz worker's own goroutines allocate beside it.
func compileBytes(src, s string, n int64) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		lang.Compile(src)
		if q, err := lang.Parse(src); err == nil {
			lang.AnalyzeBound(q, bind(q, s, n))
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// bind binds every parameter of q, cycling through the payload value types
// from n: the string s, n itself, n as a float, n's parity as a bool.
func bind(q *lang.Query, s string, n int64) map[string]event.Value {
	params := lang.Params(q)
	if len(params) == 0 {
		return nil
	}
	b := make(map[string]event.Value, len(params))
	for i, name := range params {
		switch (uint64(n) + uint64(i)) % 4 {
		case 0:
			b[name] = s
		case 1:
			b[name] = n
		case 2:
			b[name] = float64(n)
		default:
			b[name] = n%2 == 0
		}
	}
	return b
}

func sameAnalysis(t *testing.T, a, b *lang.Analysis) {
	t.Helper()
	if a.Expr.String() != b.Expr.String() || a.PartitionAttr != b.PartitionAttr || a.PushKeyAttr != b.PushKeyAttr {
		t.Fatalf("one text analyzed two ways:\n%s (partition %q, pushdown %q)\n%s (partition %q, pushdown %q)",
			a.Expr, a.PartitionAttr, a.PushKeyAttr, b.Expr, b.PartitionAttr, b.PushKeyAttr)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// moduleQueries collects every string literal in the module's Go files that
// reads as a query: it holds both EVENT and WHEN.
func moduleQueries(f testing.TB) []string {
	root, err := filepath.Abs("../..")
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, build output
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if up := strings.ToUpper(s); err == nil && strings.Contains(up, "EVENT") && strings.Contains(up, "WHEN") {
				out = append(out, s)
			}
			return true
		})
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	if len(out) < 100 {
		f.Fatalf("found %d query literals in the module, expected its examples and tests", len(out))
	}
	return out
}
