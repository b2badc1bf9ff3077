// Command doccheck enforces the repository's documentation floor without
// external dependencies, so it runs in the offline build: every package must
// carry a godoc package comment, and — in the packages named by -exported —
// every exported top-level declaration must carry a doc comment. CI runs it
// alongside revive's exported rule; doccheck is the part that works with the
// standard library alone.
//
// The -md flag adds a staleness check over prose: in each named markdown
// file, every backticked repo path (`internal/core/readtier.go`, `cmd/accd`)
// and every relative markdown link must point at something that exists, so a
// refactor that moves a file fails CI until the docs move with it.
//
// The -boundary flag enforces import boundaries. A rule reads either
// dir=path;path — no non-test file under dir may import any of the listed
// package paths — or dir=only:path;path — files under dir may import no
// module-internal package beyond the listed ones (an allowlist; imports from
// outside the module are never restricted). The defaults keep the layering
// honest: internal/core reaches its backends only through accdb/internal/spi
// (never accdb/internal/storage or accdb/internal/lock directly), the
// partition router sits strictly above the engine — it may import only the
// spi/core/wal/trace/fault surface — and no backend may reach up into
// internal/partition.
//
// Usage:
//
//	go run ./tools/doccheck [-exported dir1,dir2] [-md doc1.md,doc2.md] [-boundary rules] [root]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// modulePrefix identifies module-internal import paths: allowlist
// (dir=only:...) rules restrict only these, never standard-library or
// external imports.
const modulePrefix = "accdb/"

// boundaryRule is one parsed -boundary rule: a deny-list of import paths,
// or (allow) an allowlist of the only module-internal imports permitted.
type boundaryRule struct {
	allow bool
	pkgs  []string
}

// violation reports why importing path breaks the rule, or "" if it is fine.
func (br boundaryRule) violation(path string) string {
	if br.allow {
		if !strings.HasPrefix(path, modulePrefix) {
			return ""
		}
		for _, p := range br.pkgs {
			if path == p {
				return ""
			}
		}
		return "allowed imports: " + strings.Join(br.pkgs, ", ")
	}
	for _, p := range br.pkgs {
		if path == p {
			return "forbidden here"
		}
	}
	return ""
}

func main() {
	exported := flag.String("exported", "internal/lock,internal/core,internal/spi",
		"comma-separated package dirs whose exported declarations must all be documented")
	mdFiles := flag.String("md", "",
		"comma-separated markdown files whose backticked repo paths and relative links must exist")
	boundary := flag.String("boundary",
		"internal/core=accdb/internal/storage;accdb/internal/lock,"+
			"internal/partition=only:accdb/internal/spi;accdb/internal/core;accdb/internal/wal;accdb/internal/trace;accdb/internal/fault,"+
			"internal/storage=accdb/internal/partition,"+
			"internal/lock=accdb/internal/partition,"+
			"internal/backends=accdb/internal/partition",
		"comma-separated import-boundary rules, dir=forbidden;forbidden or dir=only:allowed;allowed (non-test files only)")
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}

	strict := make(map[string]bool)
	for _, d := range strings.Split(*exported, ",") {
		if d = strings.TrimSpace(d); d != "" {
			strict[filepath.Clean(d)] = true
		}
	}

	rules := make(map[string][]boundaryRule) // package dir -> boundary rules
	for _, rule := range strings.Split(*boundary, ",") {
		if rule = strings.TrimSpace(rule); rule == "" {
			continue
		}
		dir, pkgs, ok := strings.Cut(rule, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "doccheck: bad -boundary rule %q (want dir=pkg;pkg or dir=only:pkg;pkg)\n", rule)
			os.Exit(2)
		}
		br := boundaryRule{}
		if rest, found := strings.CutPrefix(pkgs, "only:"); found {
			br.allow = true
			pkgs = rest
		}
		for _, p := range strings.Split(pkgs, ";") {
			if p = strings.TrimSpace(p); p != "" {
				br.pkgs = append(br.pkgs, p)
			}
		}
		rules[filepath.Clean(dir)] = append(rules[filepath.Clean(dir)], br)
	}

	files := map[string][]string{} // package dir -> non-test .go files
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		files[dir] = append(files[dir], path)
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(1)
	}

	dirs := make([]string, 0, len(files))
	for d := range files {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	var problems []string
	fset := token.NewFileSet()
	for _, dir := range dirs {
		sort.Strings(files[dir])
		pkgDoc := false
		pkgName := ""
		for _, path := range files[dir] {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", path, err))
				continue
			}
			pkgName = f.Name.Name
			if f.Doc != nil {
				pkgDoc = true
			}
			if strict[dir] {
				problems = append(problems, undocumented(fset, f)...)
			}
			for _, br := range rules[dir] {
				for _, imp := range f.Imports {
					path := strings.Trim(imp.Path.Value, `"`)
					if msg := br.violation(path); msg != "" {
						p := fset.Position(imp.Pos())
						problems = append(problems, fmt.Sprintf(
							"%s:%d: import of %s crosses the %s boundary (%s)",
							p.Filename, p.Line, path, dir, msg))
					}
				}
			}
		}
		if !pkgDoc && pkgName != "" {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package comment", dir, pkgName))
		}
	}

	for _, doc := range strings.Split(*mdFiles, ",") {
		if doc = strings.TrimSpace(doc); doc != "" {
			problems = append(problems, checkMarkdown(root, doc)...)
		}
	}

	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problems\n", len(problems))
		os.Exit(1)
	}
}

// pathSpan matches a backticked span that reads as a repo path: slash-joined
// simple segments with no spaces, flags, globs, or code syntax. Command lines
// (`go test ./...`), symbol references (`core.RunRead`) and URLs all fail the
// pattern and are ignored.
var pathSpan = regexp.MustCompile("`([A-Za-z0-9_.\\-]+(?:/[A-Za-z0-9_.\\-]+)+)`")

// mdLink matches the target of an inline markdown link, minus any #fragment.
var mdLink = regexp.MustCompile(`\]\(([^)#\s]+)[^)]*\)`)

// checkMarkdown reports every backticked repo path and relative link in the
// named doc that does not exist under root. Fenced code blocks are skipped —
// they hold example commands and output, not references.
func checkMarkdown(root, doc string) []string {
	data, err := os.ReadFile(filepath.Join(root, doc))
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", doc, err)}
	}
	exists := func(rel string) bool {
		_, err := os.Stat(filepath.Join(root, rel))
		return err == nil
	}
	var out []string
	fenced := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, m := range pathSpan.FindAllStringSubmatch(line, -1) {
			p := m[1]
			// Only vouch for references into the repo's trees or doc files;
			// other slash-bearing spans (URLs sans scheme, metric label
			// pairs) are not path claims.
			first := p[:strings.Index(p, "/")]
			switch first {
			case "internal", "cmd", "pkg", "tools", "examples", ".github":
			default:
				continue
			}
			if !exists(p) {
				out = append(out, fmt.Sprintf("%s:%d: backticked path %s does not exist", doc, i+1, p))
			}
		}
		for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if !exists(filepath.Join(filepath.Dir(doc), target)) {
				out = append(out, fmt.Sprintf("%s:%d: link target %s does not exist", doc, i+1, target))
			}
		}
	}
	return out
}

// undocumented reports every exported top-level declaration in f that lacks
// a doc comment: funcs and methods (when the receiver type is exported too),
// and types, consts and vars — a spec inside a grouped declaration may carry
// its own comment instead of the group's.
func undocumented(fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, what, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil && !exportedRecv(d.Recv) {
				continue
			}
			report(d.Pos(), "function", d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(n.Pos(), "value", n.Name)
							break
						}
					}
				}
			}
		}
	}
	return out
}

// exportedRecv reports whether a method's receiver type is exported.
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}
