package core

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneHopStepOneWorldSeam statically audits three things that have one
// home each, so a second copy of the hop step or the build step, or a
// stray read of the world, fails the test run, not a code review.
//
// The hop step — open a layer in place, re-address, pad back — is
// Envelope.Peel and ReplyEnvelope.Peel in message.go: no other non-test
// file under internal/ or cmd/ may call its parts. The build step — lay
// out and seal an onion — is message.go's too: no other non-test core
// file names a layer marker or seals in place. And the relay path is
// node-local: netdeliver.go and stream.go reach the overlay
// and the anchor directory (svc.OV, svc.Dir) only where NewNetEngine
// attaches its handlers; everything else asks Service.routeAt, holds and
// anchorAt.
func TestOneHopStepOneWorldSeam(t *testing.T) {
	stepParts := map[string]bool{"PadToMatch": true, "OpenForwardLayerInPlace": true, "OpenReplyLayerInPlace": true}
	buildParts := map[string]bool{"SealInPlace": true, "SealInPlaceFrom": true}
	layerMarkers := map[string]bool{"layerRelay": true, "layerExit": true}
	nodeLocal := map[string]bool{"netdeliver.go": true, "stream.go": true}
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
					if ident, ok := n.(*ast.Ident); ok && inCore && layerMarkers[ident.Name] {
						t.Errorf("%s: %s outside core/message.go — build onions with BuildForward / BuildReply",
							fset.Position(ident.Pos()), ident.Name)
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					name := lastName(call.Fun)
					if stepParts[name] {
						t.Errorf("%s: %s called outside core/message.go — take the hop step through Envelope.Peel / ReplyEnvelope.Peel",
							fset.Position(call.Pos()), name)
					}
					if inCore && buildParts[name] {
						t.Errorf("%s: %s called outside core/message.go — seal onions with BuildForward / BuildReply",
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

// TestOneRetransmitTimer statically audits that the engine has one
// retransmission protocol and one kind of deadline: no non-test core file
// schedules a timer except window.go (the send window's retransmit timer,
// which every stream and reliable message rides — a pool probe's deadline
// included) and pool.go's scheduleTick (the probe cadence). A second
// timer-driven resend path would be a second RTO policy.
func TestOneRetransmitTimer(t *testing.T) {
	allowed := map[string]string{"window.go": "", "pool.go": "scheduleTick"}
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		fn, ok := allowed[name]
		if strings.HasSuffix(name, "_test.go") || (ok && fn == "") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if d, isFn := decl.(*ast.FuncDecl); isFn && ok && d.Name.Name == fn {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && lastName(call.Fun) == "Schedule" {
					t.Errorf("%s: Schedule called outside window.go and pool.go's scheduleTick — retransmit and time out through a Stream (SendMessage)",
						fset.Position(call.Pos()))
				}
				return true
			})
		}
	}
}

// TestTunnelStateStaysOnTheTunnel statically audits that what an initiator
// learns about one tunnel — hints, backoff — lives on that Tunnel's link
// and nowhere else: NetEngine declares no lock and no table keyed by an id
// (a hopid-keyed map is tunnel state by convention), and the cache type and
// builders the link replaced are named by no non-test file in the module.
func TestTunnelStateStaysOnTheTunnel(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "netdeliver.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var eng *ast.StructType
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "NetEngine" {
			eng, _ = ts.Type.(*ast.StructType)
		}
		return eng == nil
	})
	if eng == nil {
		t.Fatal("NetEngine not found in netdeliver.go")
	}
	isSel := func(e ast.Expr, pkg, name string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && lastName(sel.X) == pkg && (name == "" || sel.Sel.Name == name)
	}
	for _, f := range eng.Fields.List {
		if m, ok := f.Type.(*ast.MapType); isSel(f.Type, "sync", "") || (ok && isSel(m.Key, "id", "ID")) {
			t.Errorf("%s: NetEngine field %s — a lock or an id-keyed table on the engine; per-tunnel state belongs on the Tunnel's link",
				fset.Position(f.Pos()), f.Names[0].Name)
		}
	}

	err = filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, gone := range []string{"HintCache", "WithCache"} {
			if bytes.Contains(src, []byte(gone)) {
				t.Errorf("%s names %s — hints live on the Tunnel (RefreshHints, BuildForwardHinted)", path, gone)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
