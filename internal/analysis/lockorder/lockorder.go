// Package lockorder enforces the internal/core lock hierarchy statically.
//
// The Manager's documented lock discipline (manager.go) is a strict
// order: callMu before per-Object mu before shardMu before the leaf locks
// (statsMu, evictMu, rollingCache.mu, introMu), with the leaves never
// nesting anything and never being held across waits. A violation is a
// potential deadlock that -race cannot see (races and deadlocks are
// different bugs) and that stress tests only catch when the interleaving
// cooperates.
//
// Mutex fields opt in with a directive on the field declaration:
//
//	//adsm:lock <name> <level> [nowait]
//	mu sync.Mutex
//
// Levels ascend in acquisition order: while any lock of level L is held,
// only locks of level strictly greater than L may be acquired. A lock
// marked nowait must not be held across potentially-blocking operations:
// channel sends/receives, select, range-over-channel, sync.WaitGroup.Wait,
// sync.Cond.Wait, or calls to functions annotated //adsm:blocking.
//
// The held-set analysis is an approximate CFG walk: branch bodies are
// analyzed against a copy of the held-lock set, a deferred Unlock keeps
// its lock held to function end, and function literals start with an
// empty held set (goroutines do not inherit the spawner's locks). Call
// sites are then checked against the callgraph engine's bottom-up
// summaries: a call made while locks are held is a diagnostic when the
// callee — at any depth, across module-local package boundaries — acquires
// an annotated lock at a level not strictly above every held one, or may
// block while a nowait lock is held. Diagnostics carry the call chain to
// the offending acquire or wait.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "enforce //adsm:lock acquisition order and nowait discipline",
	Run:  run,
}

// lockInfo is one annotated mutex field.
type lockInfo struct {
	name   string
	level  int
	nowait bool
}

// held is one acquired lock in flight.
type held struct {
	obj      types.Object
	info     lockInfo
	pos      token.Pos
	deferred bool // released by defer: held to function end
}

func run(pass *analysis.Pass) error {
	locks, err := lockFields(pass)
	if err != nil {
		return err
	}
	if len(locks) == 0 {
		// No annotated locks means nothing can ever be held here, and every
		// check below is conditioned on a non-empty held set.
		return nil
	}
	info, err := callgraph.Of(pass)
	if err != nil {
		return err
	}
	blocking := blockingFuncs(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			c := &checker{pass: pass, info: info, locks: locks, blocking: blocking}
			c.block(fn.Body.List, nil)
		}
	}
	return nil
}

// lockFields collects //adsm:lock annotations on struct fields, keyed by
// the field's types.Object.
func lockFields(pass *analysis.Pass) (map[types.Object]lockInfo, error) {
	locks := map[types.Object]lockInfo{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				rest, ok := analysis.Directive(field.Doc, "lock")
				if !ok {
					rest, ok = analysis.Directive(field.Comment, "lock")
				}
				if !ok {
					continue
				}
				info, perr := parseLockDirective(rest)
				if perr != "" {
					pass.Reportf(field.Pos(), "malformed //adsm:lock directive: %s", perr)
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						locks[obj] = info
					}
				}
			}
			return true
		})
	}
	return locks, nil
}

func parseLockDirective(rest string) (lockInfo, string) {
	fields := strings.Fields(rest)
	if len(fields) < 2 || len(fields) > 3 {
		return lockInfo{}, "want `//adsm:lock <name> <level> [nowait]`"
	}
	level, err := strconv.Atoi(fields[1])
	if err != nil {
		return lockInfo{}, "level must be an integer"
	}
	info := lockInfo{name: fields[0], level: level}
	if len(fields) == 3 {
		if fields[2] != "nowait" {
			return lockInfo{}, "third word must be `nowait`"
		}
		info.nowait = true
	}
	return info, ""
}

// blockingFuncs collects functions annotated //adsm:blocking in this
// package.
func blockingFuncs(pass *analysis.Pass) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if _, ok := analysis.FuncDirective(pass.Fset, file, fn, "blocking"); !ok {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				out[obj] = true
			}
		}
	}
	return out
}

// checker walks one function body threading the held-lock list.
type checker struct {
	pass     *analysis.Pass
	info     *callgraph.Info
	locks    map[types.Object]lockInfo
	blocking map[*types.Func]bool
}

// block analyzes a statement list against the incoming held set and
// returns the outgoing one.
func (c *checker) block(list []ast.Stmt, h []held) []held {
	for _, s := range list {
		h = c.stmt(s, h)
	}
	return h
}

func (c *checker) stmt(s ast.Stmt, h []held) []held {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		return c.block(s.List, h)
	case *ast.ExprStmt:
		return c.exprEvents(s.X, h)
	case *ast.DeferStmt:
		if obj, op := lockOp(c.pass, s.Call); obj != nil && (op == "Unlock" || op == "RUnlock") {
			for i := len(h) - 1; i >= 0; i-- {
				if h[i].obj == obj && !h[i].deferred {
					h[i].deferred = true
					break
				}
			}
			return h
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// A deferred closure may unlock: treat any lock it unlocks as
			// deferred-released.
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if obj, op := lockOp(c.pass, call); obj != nil && (op == "Unlock" || op == "RUnlock") {
					for i := len(h) - 1; i >= 0; i-- {
						if h[i].obj == obj && !h[i].deferred {
							h[i].deferred = true
							break
						}
					}
				}
				return true
			})
		}
		return h
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			h = c.exprEvents(e, h)
		}
		return h
	case *ast.IfStmt:
		h = c.stmt(s.Init, h)
		h = c.exprEvents(s.Cond, h)
		c.stmt(s.Body, clone(h))
		c.stmt(s.Else, clone(h))
		return h
	case *ast.ForStmt:
		h = c.stmt(s.Init, h)
		if s.Cond != nil {
			h = c.exprEvents(s.Cond, h)
		}
		c.block(s.Body.List, clone(h))
		return h
	case *ast.RangeStmt:
		if t := c.pass.TypesInfo.TypeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				c.checkNowait(s.Pos(), "range over channel", h)
			}
		}
		c.block(s.Body.List, clone(h))
		return h
	case *ast.SwitchStmt:
		h = c.stmt(s.Init, h)
		if s.Tag != nil {
			h = c.exprEvents(s.Tag, h)
		}
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				c.block(cc.Body, clone(h))
			}
		}
		return h
	case *ast.TypeSwitchStmt:
		h = c.stmt(s.Init, h)
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				c.block(cc.Body, clone(h))
			}
		}
		return h
	case *ast.SelectStmt:
		c.checkNowait(s.Pos(), "select", h)
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CommClause); ok {
				c.block(cc.Body, clone(h))
			}
		}
		return h
	case *ast.SendStmt:
		c.checkNowait(s.Pos(), "channel send", h)
		return h
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, h)
	case *ast.GoStmt:
		// The goroutine body runs with its own empty held set.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.block(lit.Body.List, nil)
		}
		return h
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			h = c.exprEvents(e, h)
		}
		return h
	case *ast.DeclStmt:
		return h
	}
	return h
}

// exprEvents scans an expression for lock operations, blocking operations,
// and nested function literals, in source order.
func (c *checker) exprEvents(e ast.Expr, h []held) []held {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.block(n.Body.List, nil)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.checkNowait(n.Pos(), "channel receive", h)
			}
		case *ast.CallExpr:
			if obj, op := lockOp(c.pass, n); obj != nil {
				h = c.lockEvent(n, obj, op, h)
				return true
			}
			c.checkBlockingCall(n, h)
			c.checkCalleeSummary(n, h)
		}
		return true
	}
	ast.Inspect(e, walk)
	return h
}

// lockEvent applies one Lock/Unlock operation to the held set.
func (c *checker) lockEvent(call *ast.CallExpr, obj types.Object, op string, h []held) []held {
	info, annotated := c.locks[obj]
	if !annotated {
		return h
	}
	switch op {
	case "Lock", "RLock", "TryLock", "TryRLock":
		for _, prev := range h {
			if prev.obj == obj {
				c.pass.Reportf(call.Pos(), "lock %s acquired while already held (self-deadlock), first acquired at %s",
					info.name, c.pass.Fset.Position(prev.pos))
				return append(h, held{obj: obj, info: info, pos: call.Pos()})
			}
			if prev.info.level >= info.level {
				c.pass.Reportf(call.Pos(), "lock %s (level %d) acquired while holding %s (level %d); the ADSM lock order requires strictly ascending levels",
					info.name, info.level, prev.info.name, prev.info.level)
			}
		}
		return append(h, held{obj: obj, info: info, pos: call.Pos()})
	case "Unlock", "RUnlock":
		for i := len(h) - 1; i >= 0; i-- {
			if h[i].obj == obj && !h[i].deferred {
				return append(h[:i:i], h[i+1:]...)
			}
		}
	}
	return h
}

// checkBlockingCall flags calls that can block while a nowait lock is held:
// sync.WaitGroup.Wait, sync.Cond.Wait, and //adsm:blocking functions.
func (c *checker) checkBlockingCall(call *ast.CallExpr, h []held) {
	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if c.blocking[fn] {
		c.checkNowait(call.Pos(), "call to //adsm:blocking "+fn.Name(), h)
		return
	}
	if fn.Name() == "Wait" && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
		c.checkNowait(call.Pos(), "sync."+recvName(fn)+".Wait", h)
	}
}

// checkCalleeSummary checks one call site against the callee's engine
// summary while locks are held: transitive lock acquisitions must sit
// strictly above every held level, and transitively-blocking callees are
// subject to the nowait rule. Callees the local maps already cover
// (//adsm:blocking functions, sync waits) are skipped so nothing is
// reported twice; unknown callees are presumed lock-free and non-blocking
// (the noalloc analyzer is the conservative one).
func (c *checker) checkCalleeSummary(call *ast.CallExpr, h []held) {
	if len(h) == 0 {
		return
	}
	for _, e := range c.info.Callees(call) {
		fn := e.Callee
		if c.blocking[fn] {
			continue // checkBlockingCall reported it
		}
		if fn.Name() == "Wait" && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
			continue // checkBlockingCall reported it
		}
		cs := c.info.Summary(fn)
		if cs == nil {
			continue
		}
		callee := callgraph.Display(fn)
		frame := c.info.Frame(fn, call.Pos())
		for _, u := range cs.Acquires {
			full := callgraph.PrependFrame(frame, u.Chain)
			for _, prev := range h {
				if prev.info.level >= u.Level {
					c.pass.ReportChainf(call.Pos(),
						callgraph.ChainStrings(full, "acquire "+u.Name, u.Pos),
						"call to %s acquires lock %s (level %d) at %s while holding %s (level %d)%s; the ADSM lock order requires strictly ascending levels",
						callee, u.Name, u.Level, u.Pos, prev.info.name, prev.info.level, callgraph.ViaSuffix(full))
				}
			}
		}
		if cs.Blocks {
			what := fmt.Sprintf("call to %s, which may block (%s at %s)%s",
				callee, cs.BlockWhat, cs.BlockPos, callgraph.ViaSuffix(callgraph.PrependFrame(frame, cs.BlockChain)))
			c.checkNowait(call.Pos(), what, h)
		}
	}
}

// checkNowait reports every held nowait lock at a blocking operation.
func (c *checker) checkNowait(pos token.Pos, what string, h []held) {
	for _, prev := range h {
		if prev.info.nowait {
			c.pass.Reportf(pos, "%s while holding %s, a nowait lock acquired at %s (no lock may be held across channel/DMA waits)",
				what, prev.info.name, c.pass.Fset.Position(prev.pos))
		}
	}
}

func clone(h []held) []held {
	out := make([]held, len(h))
	copy(out, h)
	return out
}

func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "?"
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return "?"
}

// lockOp recognizes m.<field>.<op>() where op is a mutex method, returning
// the field object and operation name.
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (types.Object, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return nil, ""
	}
	// The receiver must itself be a selector or identifier naming a
	// mutex-typed variable/field.
	var obj types.Object
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[x.Sel]
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[x]
	default:
		return nil, ""
	}
	if obj == nil {
		return nil, ""
	}
	// Confirm the method belongs to the sync package (Mutex/RWMutex).
	if fn := analysis.CalleeFunc(pass.TypesInfo, call); fn != nil {
		if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return nil, ""
		}
	}
	return obj, op
}
