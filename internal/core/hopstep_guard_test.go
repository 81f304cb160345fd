package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneHopStepOneWorldSeam statically audits two things that have one
// home each, so a second copy of the hop step or a stray read of the world
// fails the test run, not a code review.
//
// The hop step — open a layer in place, re-address, pad back — is
// Envelope.Peel and ReplyEnvelope.Peel in message.go: no other non-test
// file under internal/ or cmd/ may call its parts. And the relay path is
// node-local: netdeliver.go, stream.go and reliable.go reach the overlay
// and the anchor directory (svc.OV, svc.Dir) only where NewNetEngine
// attaches its handlers; everything else asks Service.routeAt, holds and
// anchorAt.
func TestOneHopStepOneWorldSeam(t *testing.T) {
	stepParts := map[string]bool{"PadToMatch": true, "OpenForwardLayerInPlace": true, "OpenReplyLayerInPlace": true}
	nodeLocal := map[string]bool{"netdeliver.go": true, "stream.go": true, "reliable.go": true}
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			abs, err := filepath.Abs(path)
			if err != nil {
				return err
			}
			inCore := filepath.Dir(abs) == self
			if !(inCore && d.Name() == "message.go") {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if name := lastName(call.Fun); stepParts[name] {
						t.Errorf("%s: %s called outside core/message.go — take the hop step through Envelope.Peel / ReplyEnvelope.Peel",
							fset.Position(call.Pos()), name)
					}
					return true
				})
			}
			if !inCore || !nodeLocal[d.Name()] {
				return nil
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "NewNetEngine" {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || (sel.Sel.Name != "OV" && sel.Sel.Name != "Dir") {
						return true
					}
					if lastName(sel.X) == "svc" {
						t.Errorf("%s: svc.%s read on the relay path — ask Service.routeAt, holds or anchorAt",
							fset.Position(sel.Pos()), sel.Sel.Name)
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// lastName is the final identifier of x or a.b.x, "" for anything else.
func lastName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}
