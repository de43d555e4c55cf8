package analysis

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
	"sync"
)

// A Loader parses and type-checks packages of the enclosing module without
// shelling out to the go tool: module-internal imports are resolved against
// the directory tree rooted at go.mod, everything else (the standard
// library) through the compiler-independent source importer. This keeps the
// engine runnable in sandboxed CI with nothing but GOROOT sources present.
type Loader struct {
	Fset *token.FileSet

	modPath string              // module path from go.mod ("repro")
	modRoot string              // directory containing go.mod
	cache   map[string]*Package // keyed by directory
}

// stdImporter type-checks standard-library packages from GOROOT sources.
// It caches what it checks, so one shared instance type-checks each
// package (net/http and its dependencies, say) once per process rather
// than once per Loader. The source importer is not safe for concurrent
// use; stdMu serializes it.
var (
	stdMu       sync.Mutex
	stdImporter = importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
)

// NewLoader locates the enclosing module starting from dir (usually ".").
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, mod, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	return &Loader{
		Fset:    token.NewFileSet(),
		modPath: mod,
		modRoot: root,
		cache:   make(map[string]*Package),
	}, nil
}

// findModule walks upward until it sees a go.mod and returns its directory
// and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Load expands the given patterns and returns the matched packages sorted
// by import path. A pattern is either a directory path ("./internal/sim",
// possibly absolute) or a recursive form ending in "/..." which walks
// subdirectories, skipping testdata, hidden directories and directories
// without non-test Go files.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			if rest == "." || rest == "" {
				rest = "."
			}
			err := filepath.WalkDir(rest, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != rest && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					dirs[path] = true
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("analysis: walking %s: %w", pat, err)
			}
			continue
		}
		if !hasGoFiles(pat) {
			return nil, fmt.Errorf("analysis: no Go files in %s", pat)
		}
		dirs[pat] = true
	}

	var pkgs []*Package
	for dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// hasGoFiles reports whether dir holds at least one non-test .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// pathFor derives the import path of a directory: module-relative when the
// directory lies under the module root, the cleaned path otherwise.
func (l *Loader) pathFor(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return filepath.ToSlash(filepath.Clean(dir))
	}
	if rel, err := filepath.Rel(l.modRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
		if rel == "." {
			return l.modPath
		}
		return l.modPath + "/" + filepath.ToSlash(rel)
	}
	return filepath.ToSlash(abs)
}

// loadDir parses and type-checks the package in dir (cached).
func (l *Loader) loadDir(dir string) (*Package, error) {
	key, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.cache[key]; ok {
		return pkg, nil
	}
	// Parse under the canonical absolute directory so a package reached
	// both via pattern walk and via import gets identical positions.
	dir = key

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	pkg := &Package{
		Path:  l.pathFor(dir),
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
	}
	// Register before type-checking so import cycles cannot recurse
	// forever (invalid Go, but the linter must not hang on it).
	l.cache[key] = pkg

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer:                 (*loaderImporter)(l),
		FakeImportC:              true,
		Error:                    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		DisableUnusedImportCheck: true,
	}
	// Check never returns a fatal error with a collecting Error func; the
	// (possibly incomplete) package is still usable for analysis.
	tpkg, _ := conf.Check(pkg.Path, l.Fset, files, info)
	pkg.Types = tpkg
	pkg.Info = info
	pkg.collectIgnores()
	return pkg, nil
}

// loaderImporter routes module-internal import paths to the Loader and
// everything else to the source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.loadDir(filepath.Join(l.modRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: %s did not type-check", path)
		}
		return pkg.Types, nil
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdImporter.ImportFrom(path, dir, mode)
}
