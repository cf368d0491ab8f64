// Package coherence flags host-side misuse of the gmac public API.
//
// ADSM's contract (Gelado et al., ASPLOS 2010, §3.1) is that consistency
// actions happen only at kernel call and return boundaries; the host side
// of that bargain is easy to violate in ways Go happily compiles:
//
//  1. Host reads racing an async kernel. A Call(..., Async()) returns
//     before the kernel runs; reading its output (HostRead,
//     MemcpyFromShared, WriteFile) before Sync() observes stale data.
//     When the call annotates Writes(p...), only reads of those pointers
//     are flagged; an unannotated async call taints every subsequent
//     host read on that session until Sync.
//
//  2. Stale Safe pointers. Safe(p) pins the host mapping of p only until
//     the next kernel launch migrates the object; using the saved value
//     after a later Call on the same session must be re-acquired.
//
// The analysis is intra-procedural and syntactic about session identity
// (receiver expressions are compared textually), which is exactly the
// granularity at which this code is actually written.
package coherence

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer is the coherence analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "coherence",
	Doc:  "flag async host reads before Sync and stale Safe pointers",
	Run:  run,
}

// hostReads are session methods that read shared memory into host space.
var hostReads = map[string]bool{
	"HostRead":         true,
	"MemcpyFromShared": true,
	"WriteFile":        true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkFunc(pass, body)
			}
			return true
		})
	}
	return nil
}

// event is one API interaction in source order.
type event struct {
	kind  string    // "call", "async", "sync", "read", "safe", "use", "assign"
	order token.Pos // position in evaluation order (a call sorts at its closing paren, after its arguments)
	pos   ast.Node
	recv  string         // receiver expression, textually
	name  string         // method name
	args  []types.Object // identifier objects among the arguments
	write []types.Object // Writes(...) pointer objects (async calls)
	obj   types.Object   // safe/use/assign target variable
}

// checkFunc collects this function's API events in source order and runs
// the two state machines (async-before-sync, stale-safe) over them.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	events := collect(pass, body)
	// Re-order by evaluation position: a call takes effect at its closing
	// paren, after its receiver and arguments were read, so `s.Call("k",
	// args(dp))` does not count as a use of dp after the call.
	sort.SliceStable(events, func(i, j int) bool { return events[i].order < events[j].order })

	// Pass 1: async calls whose output is host-read before Sync.
	type pending struct {
		write []types.Object
		pos   ast.Node
	}
	async := map[string][]pending{} // receiver -> outstanding async calls
	for _, ev := range events {
		switch ev.kind {
		case "async":
			async[ev.recv] = append(async[ev.recv], pending{write: ev.write, pos: ev.pos})
		case "sync", "call":
			// A synchronous Call ends in Sync() (adsmCall+adsmSync), so it
			// is a completion barrier for earlier async launches too.
			delete(async, ev.recv)
		case "read":
			for _, p := range async[ev.recv] {
				if len(p.write) == 0 || intersects(p.write, ev.args) {
					pass.Reportf(ev.pos.Pos(),
						"%s on %s may observe stale data: an Async() Call at %s has not been Sync()ed",
						ev.name, ev.recv, pass.Fset.Position(p.pos.Pos()))
				}
			}
		}
	}

	// Pass 2: Safe(p) results used after a subsequent Call on the session.
	type safeVar struct {
		recv        string
		invalidated ast.Node // the Call that migrated the mapping, or nil
		reported    bool
	}
	safe := map[types.Object]*safeVar{}
	for _, ev := range events {
		switch ev.kind {
		case "safe":
			safe[ev.obj] = &safeVar{recv: ev.recv}
		case "assign":
			delete(safe, ev.obj) // reassigned: no longer a Safe result
		case "call", "async":
			for _, sv := range safe {
				if sv.recv == ev.recv && sv.invalidated == nil {
					sv.invalidated = ev.pos
				}
			}
		case "use":
			if sv, ok := safe[ev.obj]; ok && sv.invalidated != nil && !sv.reported {
				sv.reported = true
				pass.Reportf(ev.pos.Pos(),
					"%s holds a Safe() pointer acquired before the Call at %s; kernel launches may migrate the object — re-acquire with Safe()",
					ev.obj.Name(), pass.Fset.Position(sv.invalidated.Pos()))
			}
		}
	}
}

// collect walks the function body in source order, emitting events.
// Nested function literals are separate functions and are skipped (their
// own checkFunc visit handles them).
func collect(pass *analysis.Pass, body *ast.BlockStmt) []event {
	var events []event
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			// v, err := recv.Safe(p) — or a reassignment of a tracked var.
			events = append(events, assignEvents(pass, n)...)
			// Continue into the RHS for call events; LHS idents are writes,
			// not uses, and are excluded below by position.
			for _, e := range n.Rhs {
				events = append(events, exprEvents(pass, e)...)
			}
			return false
		case *ast.CallExpr:
			if ev, ok := callEvent(pass, n); ok {
				events = append(events, ev)
			}
			return true
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[n]; obj != nil {
				events = append(events, event{kind: "use", order: n.Pos(), pos: n, obj: obj})
			}
		}
		return true
	})
	return events
}

// exprEvents collects call and use events from an expression subtree.
func exprEvents(pass *analysis.Pass, e ast.Expr) []event {
	var events []event
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if ev, ok := callEvent(pass, n); ok {
				events = append(events, ev)
			}
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[n]; obj != nil {
				events = append(events, event{kind: "use", order: n.Pos(), pos: n, obj: obj})
			}
		}
		return true
	})
	return events
}

// assignEvents classifies an assignment: a Safe() acquisition, or a
// reassignment of some variable (which stops stale tracking for it).
func assignEvents(pass *analysis.Pass, as *ast.AssignStmt) []event {
	var events []event
	fromSafe := false
	var safeRecv string
	if len(as.Rhs) == 1 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			if recv, name, ok := gmacMethod(pass, call); ok && name == "Safe" {
				fromSafe = true
				safeRecv = recv
			}
		}
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		if fromSafe && i == 0 {
			events = append(events, event{kind: "safe", order: as.End(), pos: id, recv: safeRecv, obj: obj})
		} else {
			events = append(events, event{kind: "assign", order: as.End(), pos: id, obj: obj})
		}
	}
	return events
}

// callEvent classifies one call expression as a coherence-relevant event.
func callEvent(pass *analysis.Pass, call *ast.CallExpr) (event, bool) {
	recv, name, ok := gmacMethod(pass, call)
	if !ok {
		return event{}, false
	}
	switch name {
	case "Call":
		ev := event{kind: "call", order: call.Rparen, pos: call, recv: recv, name: name}
		for _, arg := range call.Args {
			opt, ok := arg.(*ast.CallExpr)
			if !ok {
				continue
			}
			switch optName := gmacFunc(pass, opt); optName {
			case "Async":
				ev.kind = "async"
			case "Writes":
				ev.write = append(ev.write, identObjs(pass, opt.Args)...)
			}
		}
		return ev, true
	case "Sync":
		return event{kind: "sync", order: call.Rparen, pos: call, recv: recv, name: name}, true
	default:
		if hostReads[name] {
			return event{
				kind: "read", order: call.Rparen, pos: call, recv: recv, name: name,
				args: identObjs(pass, call.Args),
			}, true
		}
	}
	return event{}, false
}

// gmacMethod matches recv.Name(...) where Name is a method declared in a
// package named "gmac", returning the receiver rendered as source text.
func gmacMethod(pass *analysis.Pass, call *ast.CallExpr) (recv, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "gmac" {
		return "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// gmacFunc returns the name of a package-level gmac function being called
// ("" otherwise) — used to recognize the Async()/Writes() options.
func gmacFunc(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "gmac" {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return ""
	}
	return fn.Name()
}

// identObjs resolves the identifier arguments to their objects.
func identObjs(pass *analysis.Pass, args []ast.Expr) []types.Object {
	var objs []types.Object
	for _, a := range args {
		if id, ok := ast.Unparen(a).(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				objs = append(objs, obj)
			}
		}
	}
	return objs
}

func intersects(a, b []types.Object) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}
