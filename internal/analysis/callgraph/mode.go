package callgraph

import (
	"go/ast"
	"go/types"
)

// The gmac Session host-access methods, mapped to the index of the
// gmac.Ptr argument they touch. These tables are the one definition of
// "what counts as a host write or read": the summary engine builds its
// parameter effects from them and the modecheck analyzer checks against
// them.
var (
	hostWriteMethods = map[string]int{
		"HostWrite":      0, // HostWrite(p Ptr, src []byte)
		"Memset":         0, // Memset(p Ptr, b byte, n int64)
		"MemcpyToShared": 0, // MemcpyToShared(dst Ptr, src []byte)
		"MemcpyShared":   0, // MemcpyShared(dst, src Ptr, n int64): dst written
		"ReadFile":       1, // ReadFile(f, p Ptr, n): file data lands in p
	}
	hostReadMethods = map[string]int{
		"HostRead":         0, // HostRead(p Ptr, ...)
		"MemcpyFromShared": 1, // MemcpyFromShared(dst []byte, src Ptr)
		"MemcpyShared":     1, // src read
		"WriteFile":        1, // WriteFile(f, p Ptr, n): p's bytes go to the file
	}
)

// IsGmacPtr reports whether t is the shared-pointer type gmac.Ptr. That
// is an alias of mem.Addr, so the check keys on the aliased type, by
// package *name* so the analyzers' golden-test stub qualifies.
func IsGmacPtr(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Addr" && obj.Pkg() != nil && obj.Pkg().Name() == "mem"
}

// PtrEffect is one host access a call performs on a gmac.Ptr argument.
type PtrEffect struct {
	Arg   ast.Expr       // the Ptr-typed argument expression
	Write bool           // host write vs host read
	What  string         // method name, e.g. "HostWrite"
	Chain []SummaryFrame // empty for direct session methods
	Pos   string         // where the underlying access sits
}

// PtrEffects classifies one call's host accesses to gmac.Ptr arguments:
// direct Session methods (HostWrite, Memset, ...) by name, and calls to
// helpers whose summaries declare PtrWrites/PtrReads on a parameter.
func (in *Info) PtrEffects(call *ast.CallExpr) []PtrEffect {
	var out []PtrEffect
	info := in.Unit.TypesInfo
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		if i, ok := hostWriteMethods[name]; ok {
			if arg := ptrArgAt(info, call, i); arg != nil {
				out = append(out, PtrEffect{Arg: arg, Write: true, What: name, Pos: short(in.Unit.Fset, call.Pos())})
			}
		}
		if i, ok := hostReadMethods[name]; ok {
			if arg := ptrArgAt(info, call, i); arg != nil {
				out = append(out, PtrEffect{Arg: arg, Write: false, What: name, Pos: short(in.Unit.Fset, call.Pos())})
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	for _, e := range in.resolve(call) {
		s := in.Summary(e.Callee)
		if s == nil {
			continue
		}
		frame := in.Frame(e.Callee, call.Pos())
		for _, pe := range s.PtrWrites {
			if arg := ptrArgAt(info, call, pe.Index); arg != nil {
				out = append(out, PtrEffect{Arg: arg, Write: true, What: pe.What,
					Chain: PrependFrame(frame, pe.Chain), Pos: pe.Pos})
			}
		}
		for _, pe := range s.PtrReads {
			if arg := ptrArgAt(info, call, pe.Index); arg != nil {
				out = append(out, PtrEffect{Arg: arg, Write: false, What: pe.What,
					Chain: PrependFrame(frame, pe.Chain), Pos: pe.Pos})
			}
		}
		if len(out) > 0 {
			break // one resolved callee's effects suffice
		}
	}
	return out
}

// ptrArgAt returns call.Args[i] when it exists and is gmac.Ptr-typed.
func ptrArgAt(info *types.Info, call *ast.CallExpr, i int) ast.Expr {
	if i < 0 || i >= len(call.Args) {
		return nil
	}
	arg := call.Args[i]
	if t := info.TypeOf(arg); t != nil && IsGmacPtr(t) {
		return arg
	}
	return nil
}

// ptrParams maps a function's gmac.Ptr-typed parameter objects to their
// signature indices (methods count parameters only, not the receiver).
func ptrParams(fn *types.Func) map[types.Object]int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := map[types.Object]int{}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if IsGmacPtr(p.Type()) {
			out[p] = i
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
