// Package modecheck enforces gmac's host-side access contract at vet time.
//
// ADSM's host side (Gelado et al., ASPLOS 2010, §3.1) may touch shared
// data only between kernel call/return boundaries, and an allocation's
// AccessMode refines that promise for the object's whole lifetime. The
// runtime enforces all of it — but at run time, on the inputs that happen
// to execute. This analyzer moves the common shapes of those failures to
// `make vet`, in one walk over each function:
//
//   - a host write (HostWrite, Memset, MemcpyToShared, MemcpyShared dst,
//     ReadFile, or a kernel Call annotated Writes) reaching a pointer
//     allocated with gmac.Mode(gmac.ReadOnly): ReadOnly objects are sealed
//     at their first kernel release (ErrModeViolation at run time);
//   - a host read (HostRead, MemcpyFromShared, MemcpyShared src,
//     WriteFile) of a pointer allocated gmac.Mode(gmac.WriteOnly) before
//     any write has populated it: WriteOnly objects elide every
//     device-to-host fetch;
//   - a host read, directly or through a helper, of a pointer an async
//     kernel (Call with Writes and Async) may still be writing, before a
//     Sync or a synchronous Call on the launching receiver (a synchronous
//     Call ends in Sync). An unannotated Async() Call taints every direct
//     host read on its receiver the same way;
//   - a Safe() translation used after a later Call on the same receiver:
//     kernel launches may migrate the object, so the value must be
//     re-acquired. Passing it into the launch itself is fine.
//
// What counts as a host read or write is the callgraph engine's table
// (callgraph.PtrEffects), and helpers resolve through its summaries, so a
// write buried two helpers deep is flagged at the outer call with the
// chain down to the access. The tracking itself is deliberately local and
// linear: a gmac.Ptr variable is followed from its definition (an Alloc,
// which fixes its mode, a parameter, or any other assignment, whose mode
// is unknown) through the statements of that function in evaluation
// order. Mode and async tracking stop — silently, never reporting — as
// soon as the pointer is aliased, taken by address, returned, or passed
// to a function the engine has no summary for; receivers are compared
// textually. Within those bounds every diagnostic corresponds to a
// run-time ErrModeViolation, a stale read, or a stale translation on the
// path that executes the flagged statements in order.
package modecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer is the modecheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "modecheck",
	Doc:  "flag host accesses that break the gmac access contract: access modes, async reads before Sync, stale Safe pointers",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	info, err := callgraph.Of(pass)
	if err != nil {
		return err
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var typ *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				typ, body = fn.Type, fn.Body
			case *ast.FuncLit:
				typ, body = fn.Type, fn.Body
			default:
				return true
			}
			if body != nil {
				c := &collector{pass: pass, info: info}
				c.params(typ, body)
				c.visit(body, false)
				c.uses(body)
				sort.SliceStable(c.events, func(i, j int) bool { return c.events[i].order < c.events[j].order })
				process(pass, c.events)
			}
			return true
		})
	}
	return nil
}

type evKind int

const (
	evDefine evKind = iota // a pointer variable gets a new value
	evKill                 // mode and async tracking end: aliased, escaped
	evAccess               // host write/read, direct or through a helper
	evLaunch               // recv.Call(...)
	evSync                 // recv.Sync(): every pending async launch lands
	evUse                  // a pointer variable is read
)

// event is one contract-relevant occurrence. Events are replayed in
// evaluation order: a call takes effect at its closing paren, after its
// receiver and arguments were read, and an assignment at its end, after
// its right-hand side.
type event struct {
	order     token.Pos
	pos       token.Pos // where a diagnostic lands
	kind      evKind
	obj       types.Object
	recv      string // receiver text: Launch, Sync, direct Access, and a Define from Safe()
	mode      string // evDefine: "ReadOnly", "WriteOnly", or ""
	write     bool   // evAccess
	what      string // evAccess: underlying method name
	arg       string // evAccess: the pointer expression
	accessPos string // evAccess: where the underlying access sits
	chain     []callgraph.SummaryFrame
	async     bool           // evLaunch
	annotated bool           // evLaunch: has a Writes/WriteOnlyHint write set
	writes    []types.Object // evLaunch: the written pointers
}

// collector walks one function body emitting events. Nested function
// literals run on their own schedule and are checked as functions of
// their own.
type collector struct {
	pass   *analysis.Pass
	info   *callgraph.Info
	events []event
}

func (c *collector) add(e event) {
	c.events = append(c.events, e)
}

// params starts tracking the function's gmac.Ptr parameters, mode unknown.
func (c *collector) params(typ *ast.FuncType, body *ast.BlockStmt) {
	for _, f := range typ.Params.List {
		for _, id := range f.Names {
			if obj := c.pass.TypesInfo.Defs[id]; obj != nil && callgraph.IsGmacPtr(obj.Type()) {
				c.add(event{order: body.Lbrace, pos: id.Pos(), kind: evDefine, obj: obj})
			}
		}
	}
}

// visit walks n. inCall marks positions inside call arguments, where bare
// pointer identifiers are accounted for by call classification instead of
// the conservative alias kill.
func (c *collector) visit(n ast.Node, inCall bool) {
	switch n := n.(type) {
	case nil, *ast.FuncLit:
		return
	case *ast.GoStmt, *ast.DeferStmt:
		// A goroutine's accesses are unordered against ours, and deferred
		// work runs at returns — a deferred Sync in particular does NOT
		// order before earlier statements. Stop tracking what they touch.
		c.killAllUnder(n)
		return
	case *ast.AssignStmt:
		c.assign(n)
		return
	case *ast.CallExpr:
		c.call(n)
		return
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && c.isPtrIdent(id) {
				c.kill(id)
				return
			}
		}
	case *ast.Ident:
		if !inCall && c.isPtrIdent(n) {
			// Bare use outside a call: alias, comparison, return value.
			c.kill(n)
		}
		return
	}
	ast.Inspect(n, func(ch ast.Node) bool {
		if ch == n {
			return true
		}
		c.visit(ch, inCall)
		return false
	})
}

func (c *collector) kill(id *ast.Ident) {
	c.add(event{order: id.Pos(), pos: id.Pos(), kind: evKill, obj: c.pass.TypesInfo.Uses[id]})
}

// killAllUnder kills every tracked-pointer identifier in the subtree
// (conservative escape).
func (c *collector) killAllUnder(n ast.Node) {
	ast.Inspect(n, func(ch ast.Node) bool {
		if id, ok := ch.(*ast.Ident); ok && c.isPtrIdent(id) {
			c.kill(id)
		}
		return true
	})
}

// assign gives every pointer variable it assigns a new value: an Alloc
// result carries the declared mode, a Safe() result the translating
// receiver, anything else is of unknown mode.
func (c *collector) assign(n *ast.AssignStmt) {
	for _, rhs := range n.Rhs {
		c.visit(rhs, false)
	}
	var mode, safeOn string
	if call, ok := n.Rhs[0].(*ast.CallExpr); ok && len(n.Rhs) == 1 {
		switch recv, name, _ := c.gmacMethod(call); name {
		case "Alloc":
			mode = c.allocModeOf(call)
		case "Safe":
			safeOn = recv
		}
	}
	for i, lhs := range n.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			c.visit(lhs, false)
			continue
		}
		obj := c.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = c.pass.TypesInfo.Uses[id]
		}
		if obj == nil || !callgraph.IsGmacPtr(obj.Type()) {
			continue
		}
		ev := event{order: n.End(), pos: n.Pos(), kind: evDefine, obj: obj}
		if i == 0 {
			ev.mode, ev.recv = mode, safeOn
		}
		c.add(ev)
	}
}

// allocModeOf extracts the gmac.Mode(...) option's constant, if any.
func (c *collector) allocModeOf(call *ast.CallExpr) string {
	for _, arg := range call.Args {
		oc, ok := arg.(*ast.CallExpr)
		if !ok || c.gmacFunc(oc) != "Mode" || len(oc.Args) != 1 {
			continue
		}
		var sel *ast.Ident
		switch a := ast.Unparen(oc.Args[0]).(type) {
		case *ast.SelectorExpr:
			sel = a.Sel
		case *ast.Ident:
			sel = a
		}
		if sel == nil {
			continue
		}
		switch sel.Name {
		case "ReadOnly", "ModeReadOnly":
			return "ReadOnly"
		case "WriteOnly", "ModeWriteOnly":
			return "WriteOnly"
		}
	}
	return ""
}

// call classifies one call: host-access effects (direct methods or helper
// summaries), kernel launches, Sync barriers, and pointer escapes into
// unsummarized callees.
func (c *collector) call(call *ast.CallExpr) {
	info := c.pass.TypesInfo
	consumed := map[ast.Expr]bool{}
	recv, name, isGmac := c.gmacMethod(call)

	for _, eff := range c.info.PtrEffects(call) {
		ev := event{order: call.Rparen, pos: call.Pos(), kind: evAccess,
			write: eff.Write, what: eff.What, arg: types.ExprString(eff.Arg),
			accessPos: eff.Pos, chain: eff.Chain}
		if id, ok := ast.Unparen(eff.Arg).(*ast.Ident); ok {
			ev.obj = info.Uses[id]
			consumed[eff.Arg] = true
		}
		if isGmac {
			ev.recv = recv
		}
		c.add(ev)
	}

	switch {
	case isGmac && name == "Sync":
		c.add(event{order: call.Rparen, pos: call.Pos(), kind: evSync, recv: recv})
	case isGmac && name == "Call":
		c.launch(call, recv, consumed)
	}

	// Any pointer passed to a callee without a summary may be written,
	// read, or retained there: stop tracking it. Callees the engine does
	// know (module-local helpers, the gmac session API itself) already
	// had their effects applied above. A conversion to an integer (a
	// kernel argument) copies a value no host access goes through; one
	// back to gmac.Ptr makes an alias.
	neutral := false
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if callgraph.IsGmacPtr(tv.Type) {
			c.killAllUnder(call)
			return
		}
		neutral = true
	} else if fn := analysis.CalleeFunc(info, call); fn != nil {
		neutral = fn.Pkg() != nil && fn.Pkg().Name() == "gmac" || c.info.Summary(fn) != nil
	}
	for _, arg := range call.Args {
		if consumed[arg] {
			continue
		}
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if c.isPtrIdent(id) && !neutral {
				c.kill(id)
			}
			continue
		}
		c.visit(arg, true)
	}
}

// launch handles recv.Call(kernel, args, opts...): Async() leaves the
// kernel running past the call, and Writes(p...)/WriteOnlyHint(p...)
// declare its write set.
func (c *collector) launch(call *ast.CallExpr, recv string, consumed map[ast.Expr]bool) {
	ev := event{order: call.Rparen, pos: call.Pos(), kind: evLaunch, recv: recv}
	for _, arg := range call.Args {
		oc, ok := arg.(*ast.CallExpr)
		if !ok {
			continue
		}
		switch c.gmacFunc(oc) {
		case "Async":
			ev.async = true
		case "Writes", "WriteOnlyHint":
			ev.annotated = true
			for _, wa := range oc.Args {
				if id, ok := ast.Unparen(wa).(*ast.Ident); ok && c.isPtrIdent(id) {
					ev.writes = append(ev.writes, c.pass.TypesInfo.Uses[id])
				}
			}
		case "ReadOnlyHint": // kernel-side read: no host access
		default:
			continue
		}
		consumed[arg] = true
	}
	c.add(ev)
}

// uses emits a use for every pointer variable the body reads; bare
// assignment targets are written, not read.
func (c *collector) uses(body *ast.BlockStmt) {
	targets := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					targets[id] = true
				}
			}
		case *ast.Ident:
			if !targets[n] && c.isPtrIdent(n) {
				c.add(event{order: n.Pos(), pos: n.Pos(), kind: evUse, obj: c.pass.TypesInfo.Uses[n]})
			}
		}
		return true
	})
}

// isPtrIdent reports whether id names a gmac.Ptr-typed variable.
func (c *collector) isPtrIdent(id *ast.Ident) bool {
	v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
	return ok && callgraph.IsGmacPtr(v.Type())
}

// gmacMethod matches recv.Name(...) where Name is a method declared in a
// package named "gmac", returning the receiver rendered as source text.
func (c *collector) gmacMethod(call *ast.CallExpr) (recv, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if !isSel || fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "gmac" {
		return "", "", false
	}
	if sig, isSig := fn.Type().(*types.Signature); !isSig || sig.Recv() == nil {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// gmacFunc returns the name of the package-level gmac function being
// called ("" otherwise): the Mode, Async and Writes options.
func (c *collector) gmacFunc(call *ast.CallExpr) string {
	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "gmac" {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return ""
	}
	return fn.Name()
}

// state is the per-pointer tracking record.
type state struct {
	name     string
	mode     string
	allocPos string
	escaped  bool   // aliased or escaped: mode and async facts are unknown
	wrote    bool   // some write (host or kernel) has reached it
	asyncAt  string // pending async kernel write's launch position
	asyncOn  string // and its receiver
	safeOn   string // receiver whose Safe() produced the value, or ""
	staleAt  string // the later launch on safeOn that migrated it
	reported bool   // stale use already reported
}

// process replays the events in evaluation order, reporting contract
// violations.
func process(pass *analysis.Pass, events []event) {
	vars := map[types.Object]*state{}
	unannotated := map[string]string{} // receiver -> pending unannotated async launch
	shortPos := func(p token.Pos) string {
		pos := pass.Fset.Position(p)
		return filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line)
	}
	// tracked is the pointer's state while its mode and async facts hold.
	tracked := func(obj types.Object) *state {
		if st := vars[obj]; st != nil && !st.escaped {
			return st
		}
		return nil
	}
	// barrier lands every async launch on recv.
	barrier := func(recv string) {
		delete(unannotated, recv)
		for _, st := range vars {
			if st.asyncOn == recv {
				st.asyncAt, st.asyncOn = "", ""
			}
		}
	}
	for _, e := range events {
		switch e.kind {
		case evDefine:
			vars[e.obj] = &state{name: e.obj.Name(), mode: e.mode, allocPos: shortPos(e.pos), safeOn: e.recv}
		case evKill:
			if st := vars[e.obj]; st != nil {
				st.escaped = true
			}
		case evSync:
			barrier(e.recv)
		case evLaunch:
			at := shortPos(e.pos)
			if !e.async {
				barrier(e.recv) // a synchronous Call ends in Sync
			} else if !e.annotated {
				unannotated[e.recv] = at
			}
			for _, st := range vars {
				if st.safeOn == e.recv && st.staleAt == "" {
					st.staleAt = at
				}
			}
			for _, obj := range e.writes {
				st := tracked(obj)
				if st == nil {
					continue
				}
				if st.mode == "ReadOnly" {
					pass.Reportf(e.pos,
						"kernel declares Writes(%s), but %s is allocated gmac.ReadOnly at %s; ReadOnly objects are sealed after their first release (ErrModeViolation at run time)",
						st.name, st.name, st.allocPos)
				}
				st.wrote = true
				if e.async {
					st.asyncAt, st.asyncOn = at, e.recv
				}
			}
		case evUse:
			if st := vars[e.obj]; st != nil && st.staleAt != "" && !st.reported {
				st.reported = true
				pass.Reportf(e.pos,
					"%s holds a Safe() pointer acquired before the Call at %s; kernel launches may migrate the object — re-acquire with Safe()",
					st.name, st.staleAt)
			}
		case evAccess:
			st := tracked(e.obj)
			chain := callgraph.ChainStrings(e.chain, e.what+" "+e.arg, e.accessPos)
			via := callgraph.ViaSuffix(e.chain)
			if e.write {
				if st != nil && st.mode == "ReadOnly" {
					pass.ReportChainf(e.pos, chain,
						"%s writes %s, which is allocated gmac.ReadOnly at %s; writes to ReadOnly objects fail with ErrModeViolation%s",
						e.what, st.name, st.allocPos, via)
				}
				if st != nil {
					st.wrote = true
				}
				break
			}
			if st != nil && st.mode == "WriteOnly" && !st.wrote {
				pass.ReportChainf(e.pos, chain,
					"%s reads %s, which is allocated gmac.WriteOnly at %s and not yet written; reads of WriteOnly objects fail with ErrModeViolation%s",
					e.what, st.name, st.allocPos, via)
			}
			launch := unannotated[e.recv]
			if st != nil && st.asyncAt != "" {
				launch = st.asyncAt
			}
			if launch != "" {
				pass.ReportChainf(e.pos, chain,
					"%s reads %s while the async kernel launched at %s may still be writing it; Sync first%s",
					e.what, e.arg, launch, via)
			}
		}
	}
}
