package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseDirectives(t *testing.T, src string) (*token.FileSet, []*ast.File, *Directives) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dir_test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	files := []*ast.File{f}
	return fset, files, CollectDirectives(fset, files, KnownNames(All()))
}

func TestHotpathPlacement(t *testing.T) {
	_, files, d := parseDirectives(t, `package p

// hot does things fast.
//
//photon:hotpath
func hot() {}

func cold() {}
`)
	var hot, cold *ast.FuncDecl
	for _, decl := range files[0].Decls {
		fn := decl.(*ast.FuncDecl)
		switch fn.Name.Name {
		case "hot":
			hot = fn
		case "cold":
			cold = fn
		}
	}
	if !d.Hotpath(hot) {
		t.Error("hot not marked hotpath")
	}
	if d.Hotpath(cold) {
		t.Error("cold wrongly marked hotpath")
	}
	if len(d.problems) != 0 {
		t.Errorf("unexpected problems: %v", d.problems)
	}
}

func TestHotpathOutsideDoc(t *testing.T) {
	_, _, d := parseDirectives(t, `package p

func f() {
	//photon:hotpath
	_ = 1
}
`)
	if len(d.problems) != 1 || !strings.Contains(d.problems[0].Message, "doc comment") {
		t.Errorf("want one doc-comment problem, got %v", d.problems)
	}
}

func TestAllowTargets(t *testing.T) {
	_, _, d := parseDirectives(t, `package p

func f() {
	x := 1 //photon:allow bufretain -- end-of-line form
	//photon:allow tokengen -- own-line form
	// an ordinary comment between directive and target
	y := 2
	//photon:allow bufretain,hotpathalloc -- stacked one
	//photon:allow snapshotpost -- stacked two
	z := 3
	_, _, _ = x, y, z
}
`)
	if len(d.problems) != 0 {
		t.Fatalf("unexpected problems: %v", d.problems)
	}
	byTarget := map[int][]string{}
	for _, a := range d.allows {
		for name := range a.analyzers {
			byTarget[a.target] = append(byTarget[a.target], name)
		}
	}
	// Line numbers in the source above: x:=1 is line 4, y:=2 line 7,
	// z:=3 line 10.
	if !d.suppress("bufretain", "dir_test.go", 4) {
		t.Error("end-of-line allow did not suppress on its own line")
	}
	if !d.suppress("tokengen", "dir_test.go", 7) {
		t.Error("own-line allow did not skip the interleaved comment")
	}
	if !d.suppress("bufretain", "dir_test.go", 10) || !d.suppress("snapshotpost", "dir_test.go", 10) {
		t.Errorf("stacked allows did not share the target line (targets: %v)", byTarget)
	}
	if d.suppress("hotpathalloc", "dir_test.go", 4) {
		t.Error("suppressed an analyzer the directive does not name")
	}
}

func TestMalformedAllows(t *testing.T) {
	_, _, d := parseDirectives(t, `package p

func f() {
	//photon:allow bufretain
	x := 1
	//photon:allow nosuchanalyzer -- justification
	y := 2
	//photon:allow -- justification only
	z := 3
	_, _, _ = x, y, z
}
`)
	if len(d.allows) != 0 {
		t.Errorf("malformed allows were accepted: %+v", d.allows)
	}
	var msgs []string
	for _, p := range d.problems {
		msgs = append(msgs, p.Message)
	}
	joined := strings.Join(msgs, "\n")
	for _, wanted := range []string{"needs a justification", "unknown analyzer", "lists no analyzers"} {
		if !strings.Contains(joined, wanted) {
			t.Errorf("missing problem %q in:\n%s", wanted, joined)
		}
	}
}

func TestUnusedAllowReported(t *testing.T) {
	fset, files, d := parseDirectives(t, `package p

func f() {
	x := 1 //photon:allow bufretain -- suppresses nothing
	_ = x
}
`)
	unused := d.unusedAllows(fset, files)
	if len(unused) != 1 || !strings.Contains(unused[0].Message, "suppresses nothing") {
		t.Errorf("want one unused-allow diagnostic, got %v", unused)
	}
	// After a matching suppression it is no longer unused.
	d.suppress("bufretain", "dir_test.go", 4)
	if got := d.unusedAllows(fset, files); len(got) != 0 {
		t.Errorf("used allow still reported: %v", got)
	}
}

func TestLockDirectiveTargets(t *testing.T) {
	_, _, d := parseDirectives(t, `package p

import "sync"

type s struct {
	mu sync.Mutex //photon:lock inline 10
	//photon:lock above 20
	other sync.Mutex
}
`)
	if len(d.problems) != 0 {
		t.Fatalf("unexpected problems: %v", d.problems)
	}
	inline := d.LockAt("dir_test.go", 6)
	if inline == nil || inline.name != "inline" || inline.rank != 10 {
		t.Errorf("end-of-line lock = %+v, want inline/10", inline)
	}
	above := d.LockAt("dir_test.go", 8)
	if above == nil || above.name != "above" || above.rank != 20 {
		t.Errorf("own-line lock = %+v, want above/20", above)
	}
}

func TestMalformedLockDirectives(t *testing.T) {
	_, _, d := parseDirectives(t, `package p

import "sync"

type s struct {
	a sync.Mutex //photon:lock onlyname
	b sync.Mutex //photon:lock name rank extra
	c sync.Mutex //photon:lock name notanumber
	d sync.Mutex //photon:lock name -3
	e sync.Mutex //photon:lock 9bad 10
}
`)
	if len(d.locks) != 0 {
		t.Errorf("malformed lock directives were accepted: %+v", d.locks)
	}
	var msgs []string
	for _, p := range d.problems {
		msgs = append(msgs, p.Message)
	}
	joined := strings.Join(msgs, "\n")
	for _, wanted := range []string{
		"wants exactly <name> <rank>, got 1 argument(s)",
		"wants exactly <name> <rank>, got 3 argument(s)",
		`rank "notanumber" is not a non-negative integer`,
		`rank "-3" is not a non-negative integer`,
		`name "9bad" is not an identifier`,
	} {
		if !strings.Contains(joined, wanted) {
			t.Errorf("missing problem %q in:\n%s", wanted, joined)
		}
	}
}

func TestConflictingLockRanks(t *testing.T) {
	fset, files, d := parseDirectives(t, `package p

import "sync"

type s struct {
	a sync.Mutex //photon:lock shared 10
	b sync.Mutex //photon:lock shared 20
}
`)
	_ = fset
	_ = files
	var msgs []string
	for _, p := range d.problems {
		msgs = append(msgs, p.Message)
	}
	joined := strings.Join(msgs, "\n")
	if !strings.Contains(joined, "declared with rank") {
		t.Errorf("conflicting ranks not reported:\n%s", joined)
	}
}

func TestReentersDirectives(t *testing.T) {
	_, _, d := parseDirectives(t, `package p

type s struct {
	//photon:reenters onFrame
	link *int
	a int //photon:reenters
	b int //photon:reenters one two
}
`)
	if r := d.ReentersAt("dir_test.go", 5); r == nil || r.fn != "onFrame" {
		t.Errorf("own-line reenters = %+v, want onFrame on line 5", r)
	}
	if len(d.reenters) != 1 {
		t.Errorf("malformed reenters directives were accepted: %+v", d.reenters)
	}
	n := 0
	for _, p := range d.problems {
		if strings.Contains(p.Message, "//photon:reenters wants exactly one function name") {
			n++
		}
	}
	if n != 2 {
		t.Errorf("%d malformed reenters reported, want 2: %v", n, d.problems)
	}
}
