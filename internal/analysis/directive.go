package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// DirectiveAnalyzerName is the pseudo-analyzer under which the driver
// reports malformed or unused //photon: directives. Directive problems
// are not themselves suppressible.
const DirectiveAnalyzerName = "directive"

const (
	hotpathDirective  = "photon:hotpath"
	allowDirective    = "photon:allow"
	lockDirective     = "photon:lock"
	reentersDirective = "photon:reenters"
)

// A lockDecl is one parsed //photon:lock <name> <rank> directive,
// classifying the mutex declared on its target line. name identifies
// the lock class; rank is its position in the package's declared
// acquisition order (lower ranks are acquired first / held outermost).
type lockDecl struct {
	name   string
	rank   int
	file   string
	line   int // source line of the comment itself
	target int // declaration line the classification applies to
	pos    token.Pos
}

// A reentersDecl is one parsed //photon:reenters <func> directive on a
// struct field: a method called through that field may run the named
// function of the same package before it returns (a handler the
// callee holds and invokes), so lockorder charges such a call with
// that function's lock summary.
type reentersDecl struct {
	fn     string
	file   string
	line   int // source line of the comment itself
	target int // declaration line of the field
	pos    token.Pos
}

// An allow is one parsed //photon:allow directive.
type allow struct {
	file      string
	line      int             // source line of the comment itself
	target    int             // code line the suppression applies to
	analyzers map[string]bool // names listed in the directive
	reason    string
	used      bool
}

// Directives holds one package's parsed //photon: annotations.
type Directives struct {
	hotpath    map[*ast.FuncDecl]bool
	allows     []*allow
	byLine     map[string]map[int][]*allow // file -> target line -> allows
	locks      []*lockDecl
	lockByLine map[string]map[int]*lockDecl // file -> target line -> lock class
	reenters   []*reentersDecl
	problems   []Diagnostic
}

// Hotpath reports whether fn's doc comment carries //photon:hotpath.
func (d *Directives) Hotpath(fn *ast.FuncDecl) bool { return d.hotpath[fn] }

// LockAt returns the //photon:lock classification targeting the given
// declaration line, or nil.
func (d *Directives) LockAt(file string, line int) *lockDecl { return d.lockByLine[file][line] }

// ReentersAt returns the //photon:reenters directive targeting the
// given declaration line, or nil.
func (d *Directives) ReentersAt(file string, line int) *reentersDecl {
	for _, r := range d.reenters {
		if r.file == file && r.target == line {
			return r
		}
	}
	return nil
}

// suppress consumes an allow matching (analyzer, file, line) if one
// exists, marking it used.
func (d *Directives) suppress(analyzer, file string, line int) bool {
	ok := false
	for _, a := range d.byLine[file][line] {
		if a.analyzers[analyzer] {
			a.used = true
			ok = true
		}
	}
	return ok
}

// unusedAllows reports allows that suppressed nothing — stale
// suppressions are bugs in their own right.
func (d *Directives) unusedAllows(fset *token.FileSet, files []*ast.File) []Diagnostic {
	var out []Diagnostic
	for _, a := range d.allows {
		if a.used {
			continue
		}
		pos := posForLine(fset, files, a.file, a.line)
		out = append(out, Diagnostic{
			Analyzer: DirectiveAnalyzerName,
			Pos:      pos,
			Position: token.Position{Filename: a.file, Line: a.line},
			Message:  "//photon:allow suppresses nothing (stale directive; remove it or fix the target line)",
		})
	}
	return out
}

// posForLine recovers a token.Pos on (file, line) for diagnostics.
func posForLine(fset *token.FileSet, files []*ast.File, filename string, line int) token.Pos {
	for _, f := range files {
		tf := fset.File(f.Pos())
		if tf == nil || tf.Name() != filename {
			continue
		}
		if line <= tf.LineCount() {
			return tf.LineStart(line)
		}
	}
	return token.NoPos
}

// CollectDirectives parses every //photon: comment in files. known is
// the set of analyzer names valid in allow directives; anything else is
// reported as a problem.
func CollectDirectives(fset *token.FileSet, files []*ast.File, known map[string]bool) *Directives {
	d := &Directives{
		hotpath:    map[*ast.FuncDecl]bool{},
		byLine:     map[string]map[int][]*allow{},
		lockByLine: map[string]map[int]*lockDecl{},
	}
	for _, f := range files {
		d.collectFile(fset, f, known)
	}
	d.checkLockConsistency()
	return d
}

// checkLockConsistency rejects one lock-class name declared at two
// different ranks: the declared partial order would be ambiguous.
func (d *Directives) checkLockConsistency() {
	rankOf := map[string]*lockDecl{}
	for _, l := range d.locks {
		prev, ok := rankOf[l.name]
		if !ok {
			rankOf[l.name] = l
			continue
		}
		if prev.rank != l.rank {
			d.problems = append(d.problems, Diagnostic{
				Analyzer: DirectiveAnalyzerName,
				Pos:      l.pos,
				Position: token.Position{Filename: l.file, Line: l.line},
				Message: sprintf("//photon:lock %s declared with rank %d here but rank %d elsewhere",
					l.name, l.rank, prev.rank),
			})
		}
	}
}

func (d *Directives) collectFile(fset *token.FileSet, f *ast.File, known map[string]bool) {
	filename := fset.Position(f.Pos()).Filename

	// Lines occupied by code tokens: an allow comment sharing a line
	// with code is end-of-line (targets its own line); one alone on a
	// line targets the next code line below the directive block.
	codeLines := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if _, ok := n.(*ast.File); ok {
			return true
		}
		// Doc comments are walked as AST nodes (Field.Doc, GenDecl.Doc,
		// ...) but they are not code: a directive alone on its own line
		// must stay in own-line form even when the parser attaches it to
		// the declaration below as documentation.
		switch n.(type) {
		case *ast.Comment, *ast.CommentGroup:
			return false
		}
		codeLines[fset.Position(n.Pos()).Line] = true
		codeLines[fset.Position(n.End()).Line] = true
		return true
	})
	commentLines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			start := fset.Position(c.Pos()).Line
			end := fset.Position(c.End()).Line
			for l := start; l <= end; l++ {
				if !codeLines[l] {
					commentLines[l] = true
				}
			}
		}
	}

	// Map doc comment groups to their functions for hotpath placement.
	hotpathDocs := map[*ast.CommentGroup]*ast.FuncDecl{}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Doc != nil {
			hotpathDocs[fn.Doc] = fn
		}
	}

	// targetLine is the line a directive on line applies to: its own
	// when it shares the line with code, else the first code line
	// below its comment block.
	targetLine := func(line int) int {
		if codeLines[line] {
			return line
		}
		t := line + 1
		for commentLines[t] {
			t++
		}
		return t
	}

	problem := func(pos token.Pos, format string, args ...any) {
		d.problems = append(d.problems, Diagnostic{
			Analyzer: DirectiveAnalyzerName,
			Pos:      pos,
			Position: fset.Position(pos),
			Message:  sprintf(format, args...),
		})
	}

	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			trimmed := strings.TrimSpace(text)
			switch {
			case trimmed == hotpathDirective:
				if fn, ok := hotpathDocs[cg]; ok {
					d.hotpath[fn] = true
				} else {
					problem(c.Pos(), "//photon:hotpath must appear in a function's doc comment")
				}
			case strings.HasPrefix(trimmed, hotpathDirective):
				problem(c.Pos(), "malformed //photon:hotpath directive (no arguments allowed)")
			case strings.HasPrefix(trimmed, lockDirective):
				l := d.parseLock(c, trimmed, filename, problem)
				if l == nil {
					continue
				}
				l.line = fset.Position(c.Pos()).Line
				l.target = targetLine(l.line)
				if d.lockByLine[filename] == nil {
					d.lockByLine[filename] = map[int]*lockDecl{}
				}
				if prev := d.lockByLine[filename][l.target]; prev != nil {
					problem(c.Pos(), "multiple //photon:lock directives target line %d (already classified as %q)", l.target, prev.name)
					continue
				}
				d.locks = append(d.locks, l)
				d.lockByLine[filename][l.target] = l
			case strings.HasPrefix(trimmed, reentersDirective):
				fields := strings.Fields(strings.TrimPrefix(trimmed, reentersDirective))
				if len(fields) != 1 || !token.IsIdentifier(fields[0]) {
					problem(c.Pos(), "//photon:reenters wants exactly one function name")
					continue
				}
				line := fset.Position(c.Pos()).Line
				d.reenters = append(d.reenters, &reentersDecl{
					fn: fields[0], file: filename, line: line, target: targetLine(line), pos: c.Pos(),
				})
			case strings.HasPrefix(trimmed, allowDirective):
				a := d.parseAllow(c, trimmed, filename, fset, known, problem)
				if a == nil {
					continue
				}
				// Own-line form skips the rest of the comment block
				// (stacked allows, ordinary comments).
				a.line = fset.Position(c.Pos()).Line
				a.target = targetLine(a.line)
				d.allows = append(d.allows, a)
				if d.byLine[filename] == nil {
					d.byLine[filename] = map[int][]*allow{}
				}
				d.byLine[filename][a.target] = append(d.byLine[filename][a.target], a)
			}
		}
	}
}

// parseLock parses "photon:lock <name> <rank>". name is an identifier
// for the lock class; rank must be a non-negative decimal integer.
func (d *Directives) parseLock(c *ast.Comment, trimmed, filename string, problem func(token.Pos, string, ...any)) *lockDecl {
	rest := strings.TrimSpace(strings.TrimPrefix(trimmed, lockDirective))
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		problem(c.Pos(), "//photon:lock wants exactly <name> <rank>, got %d argument(s)", len(fields))
		return nil
	}
	name := fields[0]
	if !validLockName(name) {
		problem(c.Pos(), "//photon:lock name %q is not an identifier", name)
		return nil
	}
	rank, err := strconv.Atoi(fields[1])
	if err != nil || rank < 0 {
		problem(c.Pos(), "//photon:lock rank %q is not a non-negative integer", fields[1])
		return nil
	}
	return &lockDecl{name: name, rank: rank, file: filename, pos: c.Pos()}
}

// validLockName accepts identifier-shaped lock class names.
func validLockName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9', r == '-', r == '.':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// parseAllow parses "photon:allow name1,name2 -- justification".
func (d *Directives) parseAllow(c *ast.Comment, trimmed, filename string, fset *token.FileSet, known map[string]bool, problem func(token.Pos, string, ...any)) *allow {
	rest := strings.TrimSpace(strings.TrimPrefix(trimmed, allowDirective))
	names, reason, found := strings.Cut(rest, "--")
	if !found || strings.TrimSpace(reason) == "" {
		problem(c.Pos(), "//photon:allow needs a justification: //photon:allow <analyzer> -- <why>")
		return nil
	}
	a := &allow{file: filename, analyzers: map[string]bool{}, reason: strings.TrimSpace(reason)}
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !known[name] {
			problem(c.Pos(), "//photon:allow names unknown analyzer %q", name)
			return nil
		}
		a.analyzers[name] = true
	}
	if len(a.analyzers) == 0 {
		problem(c.Pos(), "//photon:allow lists no analyzers")
		return nil
	}
	return a
}

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }
