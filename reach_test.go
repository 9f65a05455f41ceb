package unilog_test

// Nothing in internal/ that no program runs.
//
// TestEveryInternalFunctionIsReached type-checks every non-test package of
// the module, the root package's tests and the benchmark module's main with
// go/parser and go/types, and walks what the programs reach: every main
// (cmd/, examples/, bench/), the root package's Test and Benchmark
// functions, and every init function and package-level var initialiser. A
// function is reached when a reached body names it. A method is reached
// too when its receiver type is reached and a reached interface method has
// its name. Every package-level function or method under internal/ that
// the walk does not reach is reported with its file and line, exported or
// not: it is wired in where the paper puts it, or deleted.
//
// A package none of whose functions is reached shows up whole, so this is
// also the package rule: every internal package is on the pipeline or out
// of the repository.

import (
	"fmt"
	"go/ast"
	"go/build"
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

// reachAllow names the functions kept for tests alone, each with the test
// that holds it. An entry may name a type, which allows its constructor
// (New<Type>) and its methods. The list may not grow past eight entries,
// and an entry that the programs reach, or that names nothing, fails the
// test, so the list cannot go stale.
var reachAllow = map[string]string{
	"realtime.Counter.Ingest":         "the test door of the realtime tests: TestHierarchicalCounting and most others",
	"cluster.Cluster.Ingest":          "the test door of TestClusterBasicIngestAndStats and TestClusterCrashRestartConvergence",
	"scribe.Aggregator.Crash":         "the fault hook of TestHardCrashAccountsLoss and TestRandomFaultScheduleConservation",
	"cluster.Node.SetQueryDelay":      "the fault hook of birdbrain's TestScatterHedgesSlowReplica",
	"session.Builder":                 "the streaming sessionizer of the ablation tests: TestGapAblation, TestSessionSpanningMidnight",
	"events.MustParsePattern":         "the pattern literals of TestPatternMatching and TestFunnelScannerMatchesRegexp",
	"thrift.CompactEncoder.WriteBool": "the wire fixtures of TestCompactRoundTrip and FuzzHeaderMatchesDecode",
	"thrift.CompactDecoder.Remaining": "the decoder check of TestRemaining",
}

func TestEveryInternalFunctionIsReached(t *testing.T) {
	if len(reachAllow) > 8 {
		t.Fatalf("reachAllow has %d entries; at most 8", len(reachAllow))
	}
	allowed := make([]string, 0, len(reachAllow))
	for name := range reachAllow {
		allowed = append(allowed, name)
	}
	r, err := checkReach(".", "unilog", []string{"bench"}, allowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range r.unreached {
		t.Errorf("%s: %s is reached from no program, root test, init or var initialiser", u.pos, u.name)
	}
	for _, name := range r.staleAllow {
		t.Errorf("reachAllow: %q is reached by the programs or names nothing; drop it", name)
	}
}

// TestReachCheckerFixtures runs the checker on the fixture modules under
// testdata/reach.
func TestReachCheckerFixtures(t *testing.T) {
	r, err := checkReach("testdata/reach/ok", "fixture", nil, []string{"lib.Kept"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range r.unreached {
		got = append(got, u.name+" "+u.pos)
	}
	want := []string{
		"lib.Unused testdata/reach/ok/internal/lib/lib.go:52",
		"lib.orphan.Speak testdata/reach/ok/internal/lib/lib.go:44",
		"lib.unusedHelper testdata/reach/ok/internal/lib/lib.go:54",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("unreached:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if len(r.staleAllow) != 0 {
		t.Errorf("stale allow-list entries %q, want none", r.staleAllow)
	}

	r, err = checkReach("testdata/reach/ok", "fixture", nil, []string{"lib.Used", "lib.Missing"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(r.staleAllow, ",") != "lib.Missing,lib.Used" {
		t.Errorf("stale allow-list entries %q, want [lib.Missing lib.Used]", r.staleAllow)
	}

	_, err = checkReach("testdata/reach/broken", "fixture", []string{"tool"}, nil)
	if err == nil || !strings.Contains(err.Error(), filepath.Join("testdata", "reach", "broken", "tool", "main.go")+":8:") {
		t.Errorf("broken root: err = %v, want a type error at tool/main.go:8", err)
	}
}

type reachReport struct {
	unreached  []unreachedFunc // sorted by name
	staleAllow []string        // sorted
}

// unreachedFunc is a package-level function or method nothing reaches,
// named pkg.Func or pkg.Type.Method, at file:line.
type unreachedFunc struct {
	obj       *types.Func
	name, pos string
}

// checkReach loads the module at dir (module path module) and the main
// packages of the nested module directories extra, and reports every
// package-level function under dir/internal that nothing reaches. A name
// in allow is not reported and is a root itself; it is stale if it is
// reached without being a root, or names nothing. Any parse or type error
// fails the check, naming its file and line.
func checkReach(dir, module string, extra, allow []string) (*reachReport, error) {
	l := &loader{
		fset:   token.NewFileSet(),
		dir:    dir,
		module: module,
		std:    importer.Default(),
		pkgs:   map[string]*loadedPkg{},
	}
	var dirs []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != dir {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module: only its mains, through extra
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		rel, _ := filepath.Rel(dir, d)
		path := module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err := l.load(path, d, false); err != nil {
			return nil, err
		}
	}
	roots, err := l.load(module+"_test", dir, true)
	if err != nil {
		return nil, err
	}
	for _, e := range extra {
		if _, err := l.load(module+"/"+e, filepath.Join(dir, e), false); err != nil {
			return nil, err
		}
	}
	if len(l.errs) > 0 {
		return nil, fmt.Errorf("%s", strings.Join(l.errs, "\n"))
	}

	w := newWalker(l)
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						break
					}
					name := d.Name.Name
					isRoot := name == "init" ||
						(p.pkg.Name() == "main" && name == "main") ||
						(p == roots && (strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Benchmark")))
					if isRoot {
						w.queue = append(w.queue, walkItem{d, p.info})
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						w.queue = append(w.queue, walkItem{d, p.info})
					}
				}
			}
		}
	}
	w.drain()

	// Everything under internal/ the programs do not reach; then the
	// allow-listed names become roots, and what only they reach is theirs.
	rep := &reachReport{}
	matched := map[string]bool{}
	for _, u := range w.unreached(module + "/internal/") {
		if a := allowEntry(u.name, allow); a != "" {
			matched[a] = true
			w.fn(u.obj)
		}
	}
	w.drain()
	for _, a := range allow {
		if !matched[a] {
			rep.staleAllow = append(rep.staleAllow, a)
		}
	}
	sort.Strings(rep.staleAllow)
	rep.unreached = w.unreached(module + "/internal/")
	return rep, nil
}

// allowEntry returns the entry of allow that covers name, or "". An entry
// covers its own name, and an entry naming a type (pkg.T) also covers
// pkg.NewT and pkg.T.M.
func allowEntry(name string, allow []string) string {
	for _, a := range allow {
		if name == a || strings.HasPrefix(name, a+".") {
			return a
		}
		if pkg, typ, ok := strings.Cut(a, "."); ok && !strings.Contains(typ, ".") && name == pkg+".New"+typ {
			return a
		}
	}
	return ""
}

type loadedPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loader type-checks the module's packages from source, and imports the
// standard library from its export data.
type loader struct {
	fset   *token.FileSet
	dir    string
	module string
	std    types.Importer
	pkgs   map[string]*loadedPkg // by import path
	errs   []string
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	dir := filepath.Join(l.dir, filepath.FromSlash(strings.TrimPrefix(path, l.module)))
	p, err := l.load(path, dir, false)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("no Go files for %s in %s", path, dir)
	}
	return p.pkg, nil
}

// load parses and type-checks the package in dir: its non-test files, or
// with tests its external test files (package <name>_test). It returns nil
// for a directory without such files.
func (l *loader) load(path, dir string, tests bool) (*loadedPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if tests && !strings.HasSuffix(f.Name.Name, "_test") {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	p := &loadedPkg{files: files, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	l.pkgs[path] = p
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { l.errs = append(l.errs, err.Error()) },
	}
	p.pkg, _ = conf.Check(path, l.fset, files, p.info)
	return p, nil
}

// walker is the reachability walk over the loaded packages.
type walker struct {
	fset    *token.FileSet
	decls   map[*types.Func]walkItem     // module functions' declarations
	specs   map[*types.TypeName]walkItem // module types' declarations
	methods map[string][]*types.Func     // module methods by name

	funcs map[*types.Func]bool     // reached functions and methods
	named map[*types.TypeName]bool // reached types
	names map[string]bool          // method names of reached interface methods
	seen  map[types.Type]bool      // types walked by typ
	queue []walkItem               // declarations to walk
}

type walkItem struct {
	node ast.Node
	info *types.Info
}

// dynamicNames are the methods the standard library calls on a value it
// holds as any, after a type assertion no signature shows: fmt's Stringer,
// GoStringer and Formatter, errors' Unwrap, Is and As, and the json and
// text marshalers.
var dynamicNames = []string{"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText"}

func newWalker(l *loader) *walker {
	w := &walker{
		fset:    l.fset,
		decls:   map[*types.Func]walkItem{},
		specs:   map[*types.TypeName]walkItem{},
		methods: map[string][]*types.Func{},
		funcs:   map[*types.Func]bool{},
		named:   map[*types.TypeName]bool{},
		names:   map[string]bool{},
		seen:    map[types.Type]bool{},
	}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, ok := p.info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					w.decls[fn] = walkItem{d, p.info}
					if d.Recv != nil {
						w.methods[fn.Name()] = append(w.methods[fn.Name()], fn)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							if tn, ok := p.info.Defs[ts.Name].(*types.TypeName); ok {
								w.specs[tn] = walkItem{ts, p.info}
							}
						}
					}
				}
			}
		}
	}
	for _, n := range dynamicNames {
		w.name(n)
	}
	return w
}

// drain walks the queued declarations, and what they reach, to the end.
func (w *walker) drain() {
	for len(w.queue) > 0 {
		it := w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		info := it.info
		ast.Inspect(it.node, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			if id, ok := e.(*ast.Ident); ok {
				w.use(info.Uses[id])
			}
			if tv, ok := info.Types[e]; ok {
				w.typ(tv.Type)
			}
			return true
		})
	}
}

func (w *walker) use(obj types.Object) {
	switch obj := obj.(type) {
	case *types.Func:
		if recv := obj.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			w.name(obj.Name())
			return
		}
		w.fn(obj)
	case *types.TypeName:
		w.typeName(obj)
	}
}

func (w *walker) fn(f *types.Func) {
	f = f.Origin()
	if w.funcs[f] {
		return
	}
	w.funcs[f] = true
	if d, ok := w.decls[f]; ok {
		w.queue = append(w.queue, d)
	}
}

// name records that an interface method called name is reached, and
// reaches the method of that name of every reached type.
func (w *walker) name(name string) {
	if w.names[name] {
		return
	}
	w.names[name] = true
	for _, m := range w.methods[name] {
		if w.named[recvTypeName(m)] {
			w.fn(m)
		}
	}
}

func (w *walker) typeName(tn *types.TypeName) {
	if w.named[tn] {
		return
	}
	w.named[tn] = true
	d, ok := w.specs[tn]
	if !ok {
		// A type from outside the module: the standard library calls its
		// interface methods where no walked body shows it.
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				w.name(it.Method(i).Name())
			}
		}
		return
	}
	w.queue = append(w.queue, d)
	if named, ok := tn.Type().(*types.Named); ok {
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); w.names[m.Name()] {
				w.fn(m)
			}
		}
	}
}

// typ reaches the named types a value of type t carries, and the methods
// of the standard-library interfaces among them.
func (w *walker) typ(t types.Type) {
	if t == nil || w.seen[t] {
		return
	}
	w.seen[t] = true
	switch t := t.(type) {
	case *types.Alias:
		w.typ(types.Unalias(t))
	case *types.Named:
		w.typeName(t.Origin().Obj())
		for i := 0; i < t.TypeArgs().Len(); i++ {
			w.typ(t.TypeArgs().At(i))
		}
	case *types.Pointer:
		w.typ(t.Elem())
	case *types.Slice:
		w.typ(t.Elem())
	case *types.Array:
		w.typ(t.Elem())
	case *types.Chan:
		w.typ(t.Elem())
	case *types.Map:
		w.typ(t.Key())
		w.typ(t.Elem())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			w.typ(t.At(i).Type())
		}
	case *types.Signature:
		w.typ(t.Params())
		w.typ(t.Results())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			w.typ(t.Field(i).Type())
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			w.name(t.Method(i).Name())
		}
	}
}

// unreached lists the package-level functions and methods declared in
// packages under prefix that the walk has not reached, by name.
func (w *walker) unreached(prefix string) []unreachedFunc {
	var out []unreachedFunc
	for fn := range w.decls {
		if w.funcs[fn] || fn.Name() == "init" || fn.Name() == "_" || !strings.HasPrefix(fn.Pkg().Path(), prefix) {
			continue
		}
		name := fn.Pkg().Name() + "." + fn.Name()
		if tn := recvTypeName(fn); tn != nil {
			name = fn.Pkg().Name() + "." + tn.Name() + "." + fn.Name()
		}
		pos := w.fset.Position(fn.Pos())
		out = append(out, unreachedFunc{fn, name, fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// recvTypeName is the named type of a method's receiver, or nil for a
// function.
func recvTypeName(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}
