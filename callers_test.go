package silc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Production code is code that something calls. These two tests read the
// module's Go source with go/parser and go/ast (no type checker) and keep
// test-only entry points out of internal/*:
//
//   - every exported package-level func and type that a non-test file of
//     internal/* declares has a reference in some other non-test Go file of
//     the module, or in its own package outside its own declaration. Every Go
//     file under benchmark/, its tests included, counts as a reference: that
//     module compiles against internal/* and is edited only with the
//     benchmark. Files of the test-support package internal/testkit count as
//     no reference, and only test files may import it;
//   - no type declares a method M beside a method MCtx, and no package
//     declares a func M beside a func MCtx: each operation has one entry
//     point, the one that takes the query context.
//
// Methods are otherwise out of scope: an interface can need a method that
// nothing calls by name.

const (
	modulePath  = "silc"
	testkitPath = "silc/internal/testkit"
)

// goFile is one parsed file of the module.
type goFile struct {
	rel  string // slash-separated path from the repository root
	pkg  string // import path of the directory
	test bool
	ast  *ast.File
}

func parseModule(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(p)
		pkg := modulePath
		if dir := path.Dir(rel); dir != "." {
			pkg += "/" + dir
		}
		files = append(files, goFile{rel: rel, pkg: pkg, test: strings.HasSuffix(name, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no Go files found; the test must run from the repository root")
	}
	return files
}

func inBenchmark(rel string) bool { return strings.HasPrefix(rel, "benchmark/") }

// declared reports whether f is a non-test file of internal/* whose
// exported names the guard checks.
func declared(f goFile) bool {
	return !f.test && strings.HasPrefix(f.rel, "internal/") && f.pkg != testkitPath
}

// referrer reports whether f's uses of a name keep that name alive.
func referrer(f goFile) bool {
	if inBenchmark(f.rel) {
		return true
	}
	return !f.test && f.pkg != testkitPath
}

type declKey struct{ pkg, name string }

// refCollector records the package-level names one file references: pkg.Name
// selectors through an import, and bare identifiers of its own package.
type refCollector struct {
	imports map[string]string // local name → import path
	pkg     string
	self    string // the declaration being walked; its own name does not count
	refs    map[declKey]bool
}

func (c *refCollector) add(pkg, name string) {
	if pkg == c.pkg && name == c.self {
		return
	}
	c.refs[declKey{pkg, name}] = true
}

func (c *refCollector) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		if x, ok := n.X.(*ast.Ident); ok {
			if p, ok := c.imports[x.Name]; ok {
				c.add(p, n.Sel.Name)
				return nil
			}
		}
		ast.Walk(c, n.X) // n.Sel is a field or method, not a package-level name
		return nil
	case *ast.Ident:
		c.add(c.pkg, n.Name)
	case *ast.Field:
		ast.Walk(c, n.Type) // field, parameter and interface method names are not uses
		return nil
	case *ast.CompositeLit:
		if n.Type != nil {
			ast.Walk(c, n.Type)
		}
		for _, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if _, isIdent := kv.Key.(*ast.Ident); !isIdent {
					ast.Walk(c, kv.Key)
				}
				ast.Walk(c, kv.Value)
				continue
			}
			ast.Walk(c, e)
		}
		return nil
	}
	return c
}

func fileRefs(f goFile, refs map[declKey]bool) {
	c := &refCollector{imports: map[string]string{}, pkg: f.pkg, refs: refs}
	for _, im := range f.ast.Imports {
		p, err := strconv.Unquote(im.Path.Value)
		if err != nil {
			continue
		}
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		c.imports[name] = p
	}
	for _, d := range f.ast.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			c.self = ""
			if d.Recv == nil {
				c.self = d.Name.Name
			}
			// The receiver names the method's own type: not a use of it.
			ast.Walk(c, d.Type)
			if d.Body != nil {
				ast.Walk(c, d.Body)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					c.self = s.Name.Name
					if s.TypeParams != nil {
						ast.Walk(c, s.TypeParams)
					}
					ast.Walk(c, s.Type)
				case *ast.ValueSpec:
					c.self = ""
					if s.Type != nil {
						ast.Walk(c, s.Type)
					}
					for _, v := range s.Values {
						ast.Walk(c, v)
					}
				}
			}
		}
	}
}

func TestInternalExportsHaveCallers(t *testing.T) {
	files := parseModule(t)
	refs := map[declKey]bool{}
	for _, f := range files {
		if referrer(f) {
			fileRefs(f, refs)
		}
	}
	var dead []string
	for _, f := range files {
		if !declared(f) {
			continue
		}
		check := func(name, kind string) {
			if ast.IsExported(name) && !refs[declKey{f.pkg, name}] {
				dead = append(dead, f.rel+": "+kind+" "+path.Base(f.pkg)+"."+name)
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					check(d.Name.Name, "func")
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						check(ts.Name.Name, "type")
					}
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside tests: delete it, or move it into a _test.go file or %s", d, testkitPath)
	}
	for _, f := range files {
		if f.test || inBenchmark(f.rel) || f.pkg == testkitPath {
			continue
		}
		for _, im := range f.ast.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); p == testkitPath {
				t.Errorf("%s imports %s, which only tests may import", f.rel, testkitPath)
			}
		}
	}
}

// recvName is the name of a method's receiver type, or "" for a func.
func recvName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	e := d.Recv.List[0].Type
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func TestNoContextFreeTwins(t *testing.T) {
	type owner struct{ pkg, recv string }
	decls := map[owner]map[string]string{} // name → file
	for _, f := range parseModule(t) {
		if f.test || inBenchmark(f.rel) || f.pkg == testkitPath {
			continue
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				o := owner{f.pkg, recvName(fd)}
				if decls[o] == nil {
					decls[o] = map[string]string{}
				}
				decls[o][fd.Name.Name] = f.rel
			}
		}
	}
	var twins []string
	for o, names := range decls {
		for name, file := range names {
			base, ok := strings.CutSuffix(name, "Ctx")
			if !ok || base == "" {
				continue
			}
			if _, twin := names[base]; twin {
				qual := path.Base(o.pkg)
				if o.recv != "" {
					qual += "." + o.recv
				}
				twins = append(twins, file+": "+qual+"."+base+" beside "+name)
			}
		}
	}
	sort.Strings(twins)
	for _, tw := range twins {
		t.Errorf("%s: keep only the context-taking form", tw)
	}
}
