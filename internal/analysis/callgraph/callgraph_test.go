package callgraph

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"testing"
)

const src = `package demo

type Discipline interface {
	Enqueue(n int) bool
}

type FIFO struct{ buf []int }

func (f *FIFO) Enqueue(n int) bool { f.grow(); return true }
func (f *FIFO) grow()              { f.buf = append(f.buf, 0) }

type Drop struct{}

func (Drop) Enqueue(n int) bool { return false }

// Other has the same method name but does not satisfy Discipline
// (wrong signature), so dispatch must not reach it.
type Other struct{}

func (Other) Enqueue() {}

func Step(d Discipline) { d.Enqueue(1) }

func Run(d Discipline) { Step(d) }

func helperChain() { leaf() }
func leaf()        {}

func Unreached() { helperChain() }
`

func buildDemo(t *testing.T) *Graph {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "demo.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Types:      make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("demo", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return Build(pkg, info, []*ast.File{f})
}

func TestReachabilityWithInterfaceDispatch(t *testing.T) {
	g := buildDemo(t)
	roots, _ := g.RootsByName([]string{"Run"})
	if len(roots) != 1 {
		t.Fatalf("roots = %v, want exactly Run", names(roots))
	}
	via := g.Reachable(roots)
	got := make(map[string]bool)
	for fn := range via {
		got[FuncName(fn)] = true
	}
	for _, want := range []string{"Run", "Step", "FIFO.Enqueue", "FIFO.grow", "Drop.Enqueue"} {
		if !got[want] {
			t.Errorf("%s not reachable from Run; reachable set: %v", want, keys(got))
		}
	}
	for _, absent := range []string{"Other.Enqueue", "Unreached", "helperChain", "leaf"} {
		if got[absent] {
			t.Errorf("%s reachable from Run but should not be", absent)
		}
	}
	// Every reachable function should trace back to the single root.
	for fn, root := range via {
		if FuncName(root) != "Run" {
			t.Errorf("%s attributed to root %s, want Run", FuncName(fn), FuncName(root))
		}
	}
}

func TestRootsByMethodSpec(t *testing.T) {
	g := buildDemo(t)
	roots, unmatched := g.RootsByName([]string{"FIFO.Enqueue", "FIFO.Gone", "gone", "Gone"})
	if len(roots) != 1 || FuncName(roots[0]) != "FIFO.Enqueue" {
		t.Fatalf("RootsByName(FIFO.Enqueue) = %v", names(roots))
	}
	if want := []string{"FIFO.Gone", "gone", "Gone"}; !slices.Equal(unmatched, want) {
		t.Errorf("unmatched specs = %v, want %v", unmatched, want)
	}
	via := g.Reachable(roots)
	grow, _ := g.RootsByName([]string{"FIFO.grow"})
	if _, ok := via[grow[0]]; !ok {
		t.Error("FIFO.grow not reachable from FIFO.Enqueue")
	}
}

func TestBareMethodNameMatchesAllReceivers(t *testing.T) {
	g := buildDemo(t)
	roots, unmatched := g.RootsByName([]string{"Enqueue"})
	if unmatched != nil {
		t.Errorf("unmatched specs = %v, want none", unmatched)
	}
	got := names(roots)
	want := map[string]bool{"Drop.Enqueue": true, "FIFO.Enqueue": true, "Other.Enqueue": true}
	if len(got) != len(want) {
		t.Fatalf("bare-name roots = %v, want the three Enqueue methods", got)
	}
	for _, n := range got {
		if !want[n] {
			t.Errorf("unexpected root %s", n)
		}
	}
}

func names(fns []*types.Func) []string {
	out := make([]string, len(fns))
	for i, fn := range fns {
		out[i] = FuncName(fn)
	}
	return out
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
