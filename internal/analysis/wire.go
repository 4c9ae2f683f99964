package analysis

// The wire rule. The hwgc-cluster-v1 protocol's behavioural contract lives
// in a handful of enumerations that the compiler cannot check:
//
//   - typed error sentinels must appear in BOTH directions of the
//     error<->code mapping (codeOf and sentinelOf), or errors.Is breaks on
//     one side of the wire;
//   - every flight-recorder event kind a producer emits (the kind argument
//     of the coordinator's transition, or a literal Kind in an event
//     literal) must be listed in the Kind field's doc comment (the exported
//     catalogue consumers read), and every documented kind must still have
//     a producer;
//   - every wall-span name the coordinator derives or the worker mints must
//     be handled by the report package's span classifier switch;
//   - every attempt outcome the span-deriving function closes an attempt
//     with must be listed in its doc comment.
//
// The anchors (function and type names) come from WireConfig so fixtures
// can exercise the rule against miniature protocol packages.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type wireChecker struct{}

func (wireChecker) Name() string { return "wire" }

func (wireChecker) Check(prog *Program, cfg *Config) []Diagnostic {
	w := cfg.Wire
	if w == nil {
		return nil
	}
	var diags []Diagnostic
	cluster := prog.Pkg(w.ClusterPath)
	if cluster != nil {
		diags = append(diags, checkSentinels(prog, cluster, w)...)
		diags = append(diags, checkFlightKinds(prog, cluster, w)...)
		diags = append(diags, checkOutcomes(prog, cluster, w)...)
		if report := prog.Pkg(w.ReportPath); report != nil {
			diags = append(diags, checkSpanNames(prog, cluster, report, w)...)
		}
	}
	return diags
}

// checkSentinels verifies every package-level Err* error variable is
// mentioned in both mapping directions.
func checkSentinels(prog *Program, pkg *Package, w *WireConfig) []Diagnostic {
	type sentinel struct {
		name string
		pos  token.Pos
	}
	var sentinels []sentinel
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, w.SentinelPrefix) {
			continue
		}
		v, ok := scope.Lookup(name).(*types.Var)
		if !ok {
			continue
		}
		if named, ok := v.Type().(*types.Named); !ok || named.Obj().Name() != "error" {
			continue
		}
		sentinels = append(sentinels, sentinel{name, v.Pos()})
	}

	toCode := identsUsedIn(pkg, w.ToCodeFunc)
	fromCode := identsUsedIn(pkg, w.FromCodeFunc)
	var diags []Diagnostic
	for _, s := range sentinels {
		missing := []string{}
		if toCode != nil && !toCode[s.name] {
			missing = append(missing, w.ToCodeFunc+" (error -> wire code)")
		}
		if fromCode != nil && !fromCode[s.name] {
			missing = append(missing, w.FromCodeFunc+" (wire code -> error)")
		}
		if len(missing) > 0 {
			diags = append(diags, Diagnostic{
				Rule: "wire",
				Pos:  prog.Fset.Position(s.pos),
				Msg: fmt.Sprintf("error sentinel %s is not mapped in %s — errors.Is will not survive the wire",
					s.name, strings.Join(missing, " or ")),
			})
		}
	}
	return diags
}

// identsUsedIn returns the set of identifier names referenced inside the
// named function's body (nil when the function does not exist — that is a
// config problem surfaced elsewhere, not a per-sentinel diagnostic).
func identsUsedIn(pkg *Package, funcName string) map[string]bool {
	fd := findFunc(pkg, funcName)
	if fd == nil || fd.Body == nil {
		return nil
	}
	used := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			used[id.Name] = true
		}
		return true
	})
	return used
}

// findFunc locates a function or method declaration by bare name.
func findFunc(pkg *Package, name string) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}

var quotedRE = regexp.MustCompile(`"([^"]+)"`)

// docStringSet extracts the quoted strings from a doc comment — the
// documented catalogue of an enumeration.
func docStringSet(doc *ast.CommentGroup) map[string]bool {
	out := map[string]bool{}
	if doc == nil {
		return out
	}
	for _, m := range quotedRE.FindAllStringSubmatch(doc.Text(), -1) {
		out[m[1]] = true
	}
	return out
}

// checkFlightKinds compares produced event kinds against the documented
// catalogue on the Kind field.
func checkFlightKinds(prog *Program, pkg *Package, w *WireConfig) []Diagnostic {
	// The documented set: quoted strings in the Kind field's doc comment.
	var kindDoc *ast.CommentGroup
	var kindDocPos token.Pos
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != w.EventType {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if name.Name == w.KindField {
						kindDoc = field.Doc
						kindDocPos = name.Pos()
					}
				}
			}
			return true
		})
	}
	if kindDocPos == token.NoPos {
		return nil
	}
	documented := docStringSet(kindDoc)

	// The produced set: Kind: "literal" in EventType composite literals, and
	// literal kind arguments of the transition producers.
	produced := map[string]token.Pos{}
	literalArgs(pkg, "", w.KindProducers, func(kind string, pos token.Pos) {
		if _, seen := produced[kind]; !seen {
			produced[kind] = pos
		}
	})
	eventObj, _ := pkg.Types.Scope().Lookup(w.EventType).(*types.TypeName)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			t := pkg.Info.TypeOf(cl)
			if t == nil || eventObj == nil {
				return true
			}
			named, ok := t.(*types.Named)
			if !ok || named.Obj() != eventObj {
				return true
			}
			for _, elt := range cl.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != w.KindField {
					continue
				}
				if lit, ok := ast.Unparen(kv.Value).(*ast.BasicLit); ok && lit.Kind == token.STRING {
					s, _ := strconv.Unquote(lit.Value)
					if _, seen := produced[s]; !seen {
						produced[s] = lit.Pos()
					}
				}
			}
			return true
		})
	}

	var diags []Diagnostic
	for _, kind := range sortedKeys(produced) {
		if !documented[kind] {
			diags = append(diags, Diagnostic{
				Rule: "wire",
				Pos:  prog.Fset.Position(produced[kind]),
				Msg: fmt.Sprintf("flight event kind %q is emitted but missing from the %s.%s doc catalogue — consumers discover kinds there",
					kind, w.EventType, w.KindField),
			})
		}
	}
	for kind := range documented {
		if _, ok := produced[kind]; !ok {
			diags = append(diags, Diagnostic{
				Rule: "wire",
				Pos:  prog.Fset.Position(kindDocPos),
				Msg: fmt.Sprintf("flight event kind %q is documented on %s.%s but nothing emits it — stale catalogue entry",
					kind, w.EventType, w.KindField),
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Msg < diags[j].Msg })
	return diags
}

// checkSpanNames verifies every literal span name minted by the producers
// is handled by a case clause in the report package's classifier.
func checkSpanNames(prog *Program, cluster, report *Package, w *WireConfig) []Diagnostic {
	handled := map[string]bool{}
	if sw := findFunc(report, w.SpanSwitchFunc); sw != nil {
		ast.Inspect(sw.Body, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			for _, e := range cc.List {
				if lit, ok := ast.Unparen(e).(*ast.BasicLit); ok && lit.Kind == token.STRING {
					s, _ := strconv.Unquote(lit.Value)
					handled[s] = true
				}
			}
			return true
		})
	} else {
		return nil
	}

	var diags []Diagnostic
	literalArgs(cluster, w.SpanFunc, w.SpanProducers, func(name string, pos token.Pos) {
		if !handled[name] {
			diags = append(diags, Diagnostic{
				Rule: "wire",
				Pos:  prog.Fset.Position(pos),
				Msg: fmt.Sprintf("span name %q has no case in %s.%s — it will render unclassified in fleet reports",
					name, w.ReportPath, w.SpanSwitchFunc),
			})
		}
	})
	return diags
}

// checkOutcomes verifies every literal outcome the span-deriving function
// closes an attempt with is part of its documented catalogue.
func checkOutcomes(prog *Program, pkg *Package, w *WireConfig) []Diagnostic {
	fd := findFunc(pkg, w.SpanFunc)
	if fd == nil {
		return nil
	}
	documented := docStringSet(fd.Doc)
	var diags []Diagnostic
	literalArgs(pkg, w.SpanFunc, map[string]int{w.OutcomeCall: w.OutcomeArg}, func(outcome string, pos token.Pos) {
		if !documented[outcome] {
			diags = append(diags, Diagnostic{
				Rule: "wire",
				Pos:  prog.Fset.Position(pos),
				Msg: fmt.Sprintf("attempt outcome %q is not in %s's documented catalogue — report switches key off that list",
					outcome, w.SpanFunc),
			})
		}
	})
	return diags
}

// literalArgs calls visit for every string literal passed at producers[name]
// to a call of a function or method with that name — or, inside the
// function named local, of a local closure bound to that name.
func literalArgs(pkg *Package, local string, producers map[string]int, visit func(lit string, pos token.Pos)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, _ := d.(*ast.FuncDecl)
			inLocal := fd != nil && fd.Name.Name == local
			ast.Inspect(d, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := ""
				if fn := funcFor(pkg.Info, call); fn != nil {
					name = fn.Name()
				} else if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && inLocal {
					name = id.Name
				}
				argIdx, tracked := producers[name]
				if name == "" || !tracked || argIdx >= len(call.Args) {
					return true
				}
				if lit, ok := ast.Unparen(call.Args[argIdx]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
					s, _ := strconv.Unquote(lit.Value)
					visit(s, lit.Pos())
				}
				return true
			})
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
