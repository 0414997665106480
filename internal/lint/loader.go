package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package bundles everything an analyzer needs about one type-checked
// module package: syntax with comments, the type-checked object graph,
// and resolved uses. The loader builds it; the driver and every
// analyzer share it.
type Package struct {
	// Path is the package's import path (module path + relative dir).
	Path string
	// Fset is the loader's shared file set.
	Fset *token.FileSet
	// Files are the parsed non-test source files, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds identifier uses and expression types.
	Info *types.Info
}

// Loader loads and type-checks every package of one module using only
// the standard library: module packages are located by mapping import
// paths under ModulePath onto directories below RootDir, and standard
// library dependencies are type-checked from $GOROOT source. Nothing
// touches the network or the build cache, so the loader works in a
// fully offline container.
type Loader struct {
	// ModulePath is the module's import path prefix (from go.mod).
	ModulePath string
	// RootDir is the absolute module root directory.
	RootDir string
	// Fset is shared by every parsed file.
	Fset *token.FileSet

	ctx     build.Context
	modPkgs map[string]*Package
	stdPkgs map[string]*types.Package
	loading map[string]bool
}

// NewLoader creates a loader for the module rooted at root. Cgo is
// disabled so the pure-Go variants of std packages (net, os/user) are
// selected; type checking never needs the C toolchain.
func NewLoader(root, modulePath string) *Loader {
	ctx := build.Default
	ctx.CgoEnabled = false
	return &Loader{
		ModulePath: modulePath,
		RootDir:    root,
		Fset:       token.NewFileSet(),
		ctx:        ctx,
		modPkgs:    make(map[string]*Package),
		stdPkgs:    make(map[string]*types.Package),
		loading:    make(map[string]bool),
	}
}

// ModuleRoot walks upward from dir to the nearest go.mod and returns
// the directory and the module path declared there.
func ModuleRoot(dir string) (root, modulePath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module directive in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// ListPackages discovers every package import path under the module
// root (skipping testdata, hidden directories, and directories with no
// non-test Go files), sorted, without parsing or type-checking
// anything.
func (l *Loader) ListPackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.RootDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.RootDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if !l.dirHasGoFiles(path) {
			return nil
		}
		rel, err := filepath.Rel(l.RootDir, path)
		if err != nil {
			return err
		}
		importPath := l.ModulePath
		if rel != "." {
			importPath = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, importPath)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// LoadAll returns every module package type-checked, sorted by path.
func (l *Loader) LoadAll() ([]*Package, error) {
	paths, err := l.ListPackages()
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.LoadPackage(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func (l *Loader) dirHasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		return true
	}
	return false
}

// LoadPackage loads one module package by import path, reusing the
// cache across calls.
func (l *Loader) LoadPackage(path string) (*Package, error) {
	if p, ok := l.modPkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(path, l.ModulePath)
	rel = strings.TrimPrefix(rel, "/")
	dir := filepath.Join(l.RootDir, filepath.FromSlash(rel))
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	files, err := l.parseFiles(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.modPkgs[path] = p
	return p, nil
}

// Import implements types.Importer: module-local paths load as full
// packages, everything else resolves against $GOROOT source.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.LoadPackage(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.loadStd(path)
}

// loadStd type-checks a standard-library package from $GOROOT source.
// No detailed type info is recorded: checking the module's packages
// needs only std's exported object graph.
func (l *Loader) loadStd(path string) (*types.Package, error) {
	if p, ok := l.stdPkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := l.ctx.Import(path, l.RootDir, 0)
	if err != nil {
		return nil, err
	}
	files, err := l.parseFiles(bp.Dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	// Std sources can use compiler intrinsics or build-system tricks a
	// plain checker flags; collect errors but keep the (possibly
	// incomplete) package usable as long as a package object exists.
	var firstErr error
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, _ := conf.Check(path, l.Fset, files, nil)
	if tpkg == nil {
		return nil, fmt.Errorf("lint: type-checking std %s: %w", path, firstErr)
	}
	tpkg.MarkComplete()
	l.stdPkgs[path] = tpkg
	return tpkg, nil
}

func (l *Loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// RelPath renders an absolute file path relative to the module root,
// for allowlist matching and stable output.
func (l *Loader) RelPath(abs string) string {
	rel, err := filepath.Rel(l.RootDir, abs)
	if err != nil {
		return abs
	}
	return filepath.ToSlash(rel)
}
