package check

// A static determinism guard. The runtime oracles (dispatch digests,
// shard identity) sample the configuration grid; this test covers every
// path of the packages that run inside a simulation, sampled or not. It
// parses and type-checks their non-test sources with go/parser and
// go/types and fails on each construct that can make two runs of the
// same spec differ:
//
//   - a range over a map (Go randomizes map iteration order)
//   - time.Now or time.Since (wall clock)
//   - a package-level math/rand function (the shared global source);
//     the seeded constructors rand.New, rand.NewSource and rand.NewZipf
//     are how every generator is built and stay allowed
//   - a go statement outside sim/shard.go (the windowed runtime's only
//     worker pool)
//   - a select with more than one communication case (the runtime
//     picks among ready cases at random)
//
// A legitimate exception goes on determinismAllowed, keyed by file,
// enclosing function and rule, with a one-line reason.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// simPackages are the packages whose code runs inside a simulation,
// relative to the module root.
var simPackages = []string{
	"internal/sim", "internal/fabric", "internal/recn", "internal/cam",
	"internal/mempool", "internal/traffic", "internal/stats",
	"internal/fault", "internal/throttle", "internal/trace", "internal/check",
}

// determinismAllowed maps "file:func:rule" (file relative to the module
// root, func as Recv.Name for methods) to the reason the construct is
// deterministic after all. Each listed map range is order-insensitive.
var determinismAllowed = map[string]string{
	"internal/fault/fault.go:sortedKinds:map-range":            "collects the keys, then sorts them",
	"internal/fault/fault.go:Plan.Bind:map-range":              "copies one map into another",
	"internal/fault/fault.go:Plan.HasScriptedDrops:map-range":  "reports whether any value is positive",
	"internal/stats/snapshot.go:LatencyDump.Restore:map-range": "sums counts into fixed buckets",
	"internal/trace/trace.go:sortedNames:map-range":            "collects the keys, then sorts them",
}

// goAllowed is the one file that may start goroutines.
const goAllowed = "internal/sim/shard.go"

const (
	ruleMapRange  = "map-range"
	ruleWallClock = "wall-clock"
	ruleGlobalRNG = "global-rand"
	ruleGo        = "go-statement"
	ruleSelect    = "multi-select"
)

// seededRand are the math/rand package-level functions that build a
// seeded generator rather than draw from the global source.
var seededRand = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

type finding struct {
	file string // relative to the module root
	fn   string // enclosing function (Recv.Name for methods), "" at package level
	line int
	rule string
	what string
}

func (f finding) key() string { return f.file + ":" + f.fn + ":" + f.rule }

func (f finding) String() string {
	return fmt.Sprintf("%s:%d: %s in %s: %s", f.file, f.line, f.rule, f.fn, f.what)
}

// funcName names a declaration's function as the allow-list does.
func funcName(d ast.Decl) string {
	fd, ok := d.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	switch r := t.(type) {
	case *ast.IndexExpr:
		t = r.X
	case *ast.IndexListExpr:
		t = r.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// scanDeterminism reports every forbidden construct in files, whose
// types are recorded in info. rel maps a position's file name to the
// name findings carry.
func scanDeterminism(fset *token.FileSet, files []*ast.File, info *types.Info, rel func(string) string) []finding {
	var out []finding
	for _, f := range files {
		for _, d := range f.Decls {
			scanDecl(fset, d, info, rel, &out)
		}
	}
	return out
}

func scanDecl(fset *token.FileSet, d ast.Decl, info *types.Info, rel func(string) string, out *[]finding) {
	fn := funcName(d)
	ast.Inspect(d, func(n ast.Node) bool {
		add := func(rule, what string) {
			p := fset.Position(n.Pos())
			*out = append(*out, finding{file: rel(p.Filename), fn: fn, line: p.Line, rule: rule, what: what})
		}
		switch n := n.(type) {
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					add(ruleMapRange, "range over "+t.String())
				}
			}
		case *ast.SelectorExpr:
			obj, ok := info.Uses[n.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil || obj.Type().(*types.Signature).Recv() != nil {
				break
			}
			switch path, name := obj.Pkg().Path(), obj.Name(); {
			case path == "time" && (name == "Now" || name == "Since"):
				add(ruleWallClock, "time."+name)
			case (path == "math/rand" || path == "math/rand/v2") && !seededRand[name]:
				add(ruleGlobalRNG, path+"."+name)
			}
		case *ast.GoStmt:
			if p := fset.Position(n.Pos()); rel(p.Filename) != goAllowed {
				add(ruleGo, "go statement")
			}
		case *ast.SelectStmt:
			comm := 0
			for _, c := range n.Body.List {
				if c.(*ast.CommClause).Comm != nil {
					comm++
				}
			}
			if comm > 1 {
				add(ruleSelect, fmt.Sprintf("select with %d communication cases", comm))
			}
		}
		return true
	})
}

// srcImporter type-checks the module's own packages from source and
// takes the standard library from the toolchain's export data.
type srcImporter struct {
	fset   *token.FileSet
	root   string // module root
	module string // module path
	std    types.Importer
	pkgs   map[string]*loaded
}

type loaded struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	if path != im.module && !strings.HasPrefix(path, im.module+"/") {
		return im.std.Import(path)
	}
	l, err := im.load(path)
	if err != nil {
		return nil, err
	}
	return l.pkg, nil
}

// load parses and type-checks one module package's non-test files.
func (im *srcImporter) load(path string) (*loaded, error) {
	if l := im.pkgs[path]; l != nil {
		return l, nil
	}
	dir := filepath.Join(im.root, strings.TrimPrefix(strings.TrimPrefix(path, im.module), "/"))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	l := &loaded{info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		l.files = append(l.files, f)
	}
	conf := types.Config{Importer: im}
	if l.pkg, err = conf.Check(path, im.fset, l.files, l.info); err != nil {
		return nil, err
	}
	im.pkgs[path] = l
	return l, nil
}

// moduleRoot walks up from the test's directory to go.mod and returns
// the root and the module path.
func moduleRoot(t *testing.T) (root, module string) {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					return dir, f[1]
				}
			}
			t.Fatal("go.mod names no module")
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

func TestDeterminismGuard(t *testing.T) {
	root, module := moduleRoot(t)
	fset := token.NewFileSet()
	im := &srcImporter{fset: fset, root: root, module: module, std: importer.Default(), pkgs: map[string]*loaded{}}
	rel := func(name string) string {
		r, err := filepath.Rel(root, name)
		if err != nil {
			return name
		}
		return filepath.ToSlash(r)
	}
	var bad []string
	used := map[string]bool{}
	for _, p := range simPackages {
		l, err := im.load(module + "/" + p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, f := range scanDeterminism(fset, l.files, l.info, rel) {
			if _, ok := determinismAllowed[f.key()]; ok {
				used[f.key()] = true
			} else {
				bad = append(bad, f.String())
			}
		}
	}
	for k := range determinismAllowed {
		if !used[k] {
			bad = append(bad, "stale allow-list entry "+k)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// scanSnippet type-checks one source file as package p (file name
// fname) and returns the rules it breaks.
func scanSnippet(t *testing.T, fname, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, fname, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	var rules []string
	for _, fd := range scanDeterminism(fset, []*ast.File{f}, info, func(s string) string { return s }) {
		rules = append(rules, fd.rule)
	}
	return rules
}

// One seeded violation per rule, each next to a near miss the guard
// must accept.
func TestDeterminismGuardRules(t *testing.T) {
	cases := []struct {
		name, file, src string
		want            []string
	}{
		{"map range", "a.go", `package p
func f(m map[int]int, s []int) (n int) {
	for k := range m { n += k }
	for _, v := range s { n += v }
	_ = m[1]
	return
}`, []string{ruleMapRange}},
		{"map range through a named type", "a.go", `package p
type set map[string]bool
func f(s set) (n int) {
	for range s { n++ }
	return
}`, []string{ruleMapRange}},
		{"wall clock", "a.go", `package p
import "time"
func f() time.Duration {
	start := time.Now()
	var d time.Duration = 3 * time.Second
	return time.Since(start) + d
}`, []string{ruleWallClock, ruleWallClock}},
		{"global rand", "a.go", `package p
import "math/rand"
func f() int {
	r := rand.New(rand.NewSource(1))
	return r.Intn(4) + rand.Intn(4)
}`, []string{ruleGlobalRNG}},
		{"go statement", "a.go", `package p
func f(c chan int) {
	go func() { c <- 1 }()
}`, []string{ruleGo}},
		{"go statement in the shard pool", goAllowed, `package p
func f(c chan int) {
	go func() { c <- 1 }()
}`, nil},
		{"multi-case select", "a.go", `package p
func f(a, b chan int) int {
	select {
	case v := <-a:
		return v
	default:
	}
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}`, []string{ruleSelect}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := scanSnippet(t, c.file, c.src)
			if strings.Join(got, ",") != strings.Join(c.want, ",") {
				t.Errorf("rules %v, want %v", got, c.want)
			}
		})
	}
}
