// Package lint holds repo-hygiene tests that gate CI but ship no runtime
// code. TestExportedDocs is the doc-comment contract for the packages
// whose exported surface doubles as the failure-model specification.
package lint

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// documented packages must carry a doc comment on the package clause and
// on every exported type, function, method, constant block, and variable.
// These are the packages whose godoc is normative: vsync implements the
// §3 protocol (including the compact wire codec of PROTOCOL.md "Wire
// format"), transport defines the buffer-ownership contract the codec's
// pooling relies on, simnet and faults define the fault plane (FAULTS.md),
// and class + placement define the sharding contract (PROTOCOL.md
// "Coordinator placement and takeover"): which class a tuple falls in and
// which machine
// sequences it must be readable from the doc comments alone. core and
// semantics joined with the leased-read fast path (PROTOCOL.md "Leased
// reads"): the engine's op surface — including the lease fallback
// contract and its §3.3 accounting — and the A1–A3 rules the lease must
// stay invisible to are spec surface too.
var documented = []string{
	"../vsync",
	"../transport",
	"../simnet",
	"../faults",
	"../obs",
	"../obs/flight",
	"../cost",
	"../class",
	"../placement",
	"../core",
	"../semantics",
}

func TestExportedDocs(t *testing.T) {
	for _, dir := range documented {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			for _, missing := range undocumented(t, dir) {
				t.Errorf("missing doc comment: %s", missing)
			}
		})
	}
}

// undocumented parses the package in dir (tests excluded) and returns a
// sorted list of exported identifiers that lack doc comments.
func undocumented(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	var out []string
	for name, pkg := range pkgs {
		files := make([]*ast.File, 0, len(pkg.Files))
		for _, f := range pkg.Files {
			files = append(files, f)
		}
		d, err := doc.NewFromFiles(fset, files, "paso/internal/"+name)
		if err != nil {
			t.Fatalf("doc %s: %v", dir, err)
		}
		if strings.TrimSpace(d.Doc) == "" {
			out = append(out, name+" (package comment)")
		}
		for _, v := range append(d.Consts, d.Vars...) {
			out = append(out, undocumentedValues(name, v)...)
		}
		for _, f := range d.Funcs {
			if ast.IsExported(f.Name) && strings.TrimSpace(f.Doc) == "" {
				out = append(out, fmt.Sprintf("%s.%s", name, f.Name))
			}
		}
		for _, typ := range d.Types {
			if ast.IsExported(typ.Name) && strings.TrimSpace(typ.Doc) == "" {
				out = append(out, fmt.Sprintf("%s.%s", name, typ.Name))
			}
			for _, v := range append(typ.Consts, typ.Vars...) {
				out = append(out, undocumentedValues(name, v)...)
			}
			for _, f := range append(typ.Funcs, typ.Methods...) {
				if ast.IsExported(f.Name) && strings.TrimSpace(f.Doc) == "" {
					out = append(out, fmt.Sprintf("%s.%s.%s", name, typ.Name, f.Name))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// undocumentedValues reports exported names in a const/var group that carry
// neither a group-level doc comment nor a per-spec doc or trailing line
// comment — the usual convention for enum-style blocks.
func undocumentedValues(pkg string, v *doc.Value) []string {
	if strings.TrimSpace(v.Doc) != "" {
		return nil
	}
	var out []string
	for _, spec := range v.Decl.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || vs.Doc.Text() != "" || vs.Comment.Text() != "" {
			continue
		}
		for _, n := range vs.Names {
			if ast.IsExported(n.Name) {
				out = append(out, fmt.Sprintf("%s.%s", pkg, n.Name))
			}
		}
	}
	return out
}
