// Command doclint is the CI documentation gate. It has two checks:
//
//   - exported-symbol docs: every exported const, var, func, type, and
//     method in the given packages must carry a doc comment, and the
//     package itself must have a package comment — the contract that keeps
//     `go doc gqbe` usable (the same rule as revive's `exported`, without
//     pulling in a linter dependency);
//   - doc links: every relative markdown link in the given files and
//     directories must resolve to an existing file, and so must every
//     *.md name cited in a Go comment under a `dir/...` entry, so neither
//     docs/ nor the code's pointers into it can rot silently as the tree
//     moves.
//
// Usage:
//
//	doclint -pkg . -links README.md,docs,./...
//
// Exit status is non-zero if any finding is reported; each finding is one
// line on stderr.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	pkgs := flag.String("pkg", "", "comma-separated package directories whose exported symbols must be documented")
	links := flag.String("links", "", "comma-separated markdown files or directories whose relative links must resolve; a dir/... entry checks the *.md names cited in the Go comments under dir")
	flag.Parse()

	var findings []string
	for _, dir := range splitList(*pkgs) {
		fs, err := lintPackageDocs(dir)
		if err != nil {
			fatalf("doclint: %v", err)
		}
		findings = append(findings, fs...)
	}
	for _, path := range splitList(*links) {
		fs, err := lintLinks(path)
		if err != nil {
			fatalf("doclint: %v", err)
		}
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// lintPackageDocs reports every undocumented exported symbol in the package
// at dir (test files excluded).
func lintPackageDocs(dir string) ([]string, error) {
	fset := token.NewFileSet()
	parsed, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, astPkg := range parsed {
		// doc.New with AllDecls keeps everything; we filter to exported
		// names ourselves so unexported helpers never trip the gate.
		d := doc.New(astPkg, dir, doc.AllDecls)
		at := func(name string) string {
			return fmt.Sprintf("%s: package %s: %s", dir, d.Name, name)
		}
		if strings.TrimSpace(d.Doc) == "" {
			findings = append(findings, at("missing package comment"))
		}
		report := func(kind, name, docText string) {
			if ast.IsExported(name) && strings.TrimSpace(docText) == "" {
				findings = append(findings, at(fmt.Sprintf("exported %s %s is undocumented", kind, name)))
			}
		}
		reportValues(&findings, at, append(d.Consts, d.Vars...))
		for _, f := range d.Funcs {
			report("function", f.Name, f.Doc)
		}
		for _, t := range d.Types {
			report("type", t.Name, t.Doc)
			for _, f := range t.Funcs {
				report("function", f.Name, f.Doc)
			}
			for _, m := range t.Methods {
				if ast.IsExported(t.Name) && ast.IsExported(m.Name) {
					if strings.TrimSpace(m.Doc) == "" {
						findings = append(findings, at(fmt.Sprintf("exported method %s.%s is undocumented", t.Name, m.Name)))
					}
				}
			}
			reportValues(&findings, at, append(t.Consts, t.Vars...))
		}
	}
	return findings, nil
}

// reportValues flags undocumented exported names in const/var groups. A
// name is documented if its group has a doc comment OR its own spec inside
// the group does (the usual style for enums like StopReason constants —
// go/doc's Value.Doc carries only the group comment, so specs are checked
// on the AST directly).
func reportValues(findings *[]string, at func(string) string, values []*doc.Value) {
	for _, v := range values {
		if strings.TrimSpace(v.Doc) != "" {
			continue
		}
		for _, spec := range v.Decl.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			if vs.Doc.Text() != "" || vs.Comment.Text() != "" {
				continue
			}
			for _, name := range vs.Names {
				if ast.IsExported(name.Name) {
					*findings = append(*findings, at(fmt.Sprintf("exported value %s is undocumented", name.Name)))
				}
			}
		}
	}
}

// mdLink matches inline markdown links [text](target) and the title form
// [text](target "Title"); images share the syntax and are checked the same
// way. mdLinkDef matches reference-style definitions (`[ref]: target`) —
// checking definitions covers every [text][ref] use of them.
var (
	mdLink    = regexp.MustCompile(`\]\(\s*([^)\s]+)(?:\s+"[^"]*")?\s*\)`)
	mdLinkDef = regexp.MustCompile(`(?m)^\[[^\]]+\]:\s*(\S+)`)
)

// lintLinks checks every relative link in path (a .md file, or a directory
// scanned recursively for .md files) resolves to an existing file. A path
// of the form dir/... instead checks the *.md names cited in the comments of
// every .go file under dir, skipping hidden directories and testdata.
func lintLinks(path string) ([]string, error) {
	root, goTree := strings.CutSuffix(path, "/...")
	suffix, lint := ".md", lintFileLinks
	if goTree {
		suffix, lint = ".go", lintGoComments
	}
	info, err := os.Stat(root)
	if err != nil {
		return nil, err
	}
	var files []string
	if info.IsDir() {
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && p != root && goTree && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(p, suffix) {
				files = append(files, p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	} else {
		files = []string{root}
	}
	var findings []string
	for _, f := range files {
		fs, err := lint(f)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	return findings, nil
}

func lintFileLinks(file string) ([]string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var findings []string
	links := mdLink.FindAllStringSubmatch(string(data), -1)
	links = append(links, mdLinkDef.FindAllStringSubmatch(string(data), -1)...)
	for _, m := range links {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
			continue // external; reachability is not this linter's job
		}
		// In-page anchors can't be resolved without a markdown renderer;
		// only the file part of a cross-file link is checked.
		target, _, _ = strings.Cut(target, "#")
		if target == "" {
			continue
		}
		resolved := filepath.Join(filepath.Dir(file), target)
		if _, err := os.Stat(resolved); err != nil {
			findings = append(findings, fmt.Sprintf("%s: dead link %q (%s)", file, m[1], resolved))
		}
	}
	return findings, nil
}

// mdName matches a markdown file name cited in a Go comment ("see
// docs/OPERATIONS.md", "README.md#flags"). It must start the comment or
// follow whitespace, a paren, a quote or a backquote, so the path inside a
// URL is not mistaken for a repository file.
var mdName = regexp.MustCompile("(?:^|[\\s(`\"'])(\\w[\\w./-]*\\.md)\\b")

// lintGoComments checks every *.md name cited in file's comments resolves
// relative to the file's module root (see moduleRoot), the form the tree's
// citations take ("docs/OPERATIONS.md").
func lintGoComments(file string) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	root := moduleRoot(filepath.Dir(file))
	var findings []string
	for _, group := range f.Comments {
		for _, c := range group.List {
			for _, m := range mdName.FindAllStringSubmatch(c.Text, -1) {
				if _, err := os.Stat(filepath.Join(root, m[1])); err != nil {
					findings = append(findings, fmt.Sprintf("%s: comment cites missing file %q", fset.Position(c.Pos()), m[1]))
				}
			}
		}
	}
	return findings, nil
}

// moduleRoot returns the nearest directory at or above dir that holds a
// go.mod, or dir itself if there is none.
func moduleRoot(dir string) string {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir
		}
		d = parent
	}
}
