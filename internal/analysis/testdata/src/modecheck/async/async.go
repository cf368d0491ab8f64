// Package async exercises modecheck's ordering checks: host reads of an
// object an async kernel may still be writing, before Sync, directly and
// through a helper, and Safe() pointers used after a later Call.
package async

import "gmac"

// asyncThenRead: reading kernel output before Sync observes stale data.
// An unannotated async kernel may write anything, so every direct host
// read on its receiver is suspect.
func asyncThenRead(ctx *gmac.Context, p gmac.Ptr) {
	_ = ctx.Call("saxpy", nil, gmac.Async())
	_, _ = ctx.HostRead(p, 4) // want `HostRead reads p while the async kernel launched at async\.go:\d+ may still be writing it; Sync first`
	_ = ctx.Sync()
	_, _ = ctx.HostRead(p, 4) // after Sync: fine
}

// allowedAsyncRead: the escape hatch suppresses the finding.
func allowedAsyncRead(ctx *gmac.Context, p gmac.Ptr) {
	_ = ctx.Call("saxpy", nil, gmac.Async())
	//adsm:allow modecheck: the fixture's suppression case
	_, _ = ctx.HostRead(p, 4)
}

// asyncWithWrites: only the annotated written pointers taint reads.
func asyncWithWrites(ctx *gmac.Context, p, q gmac.Ptr) {
	_ = ctx.Call("saxpy", nil, gmac.Async(), gmac.Writes(p))
	_, _ = ctx.HostRead(q, 4) // q is not written: fine
	_, _ = ctx.HostRead(p, 4) // want `HostRead reads p while the async kernel launched at async\.go:\d+ may still be writing it; Sync first`
}

// syncCallIsBarrier: a synchronous Call ends in Sync, completing earlier
// async launches.
func syncCallIsBarrier(ctx *gmac.Context, p gmac.Ptr) {
	_ = ctx.Call("saxpy", nil, gmac.Async())
	_ = ctx.Call("saxpy", nil)
	_, _ = ctx.HostRead(p, 4) // fine: the synchronous Call drained the queue
}

// syncCallBarrierViaHelper: the same barrier holds for a helper read of an
// annotated async write.
func syncCallBarrierViaHelper(s *gmac.Context) {
	p, _ := s.Alloc(64)
	s.Call("k", nil, gmac.Writes(p), gmac.Async())
	s.Call("k2", nil)
	checksum(s, p)
}

// asyncMemcpyShared copies out of an object an async kernel may still be
// writing: MemcpyShared reads its source.
func asyncMemcpyShared(s *gmac.Context, q gmac.Ptr) {
	p, _ := s.Alloc(64)
	s.Call("k", nil, gmac.Writes(p), gmac.Async())
	s.MemcpyShared(q, p, 64) // want `MemcpyShared reads p while the async kernel launched at async\.go:\d+ may still be writing it; Sync first`
}

// asyncParamViaHelper reads, through a helper, a parameter an async kernel
// may still be writing.
func asyncParamViaHelper(s *gmac.Context, p gmac.Ptr) {
	s.Call("k", nil, gmac.Writes(p), gmac.Async())
	checksum(s, p) // want `HostRead reads p while the async kernel launched at async\.go:\d+ may still be writing it; Sync first \(via async\.checksum at async\.go:\d+\)`
}

// asyncKernelArgs passes the pointer as a kernel argument too: converting
// it to an integer neither aliases it nor ends tracking.
func asyncKernelArgs(s *gmac.Context) {
	p, _ := s.Alloc(64)
	s.Call("k", []uint64{uint64(p), 64}, gmac.Writes(p), gmac.Async())
	checksum(s, p) // want `HostRead reads p while the async kernel launched at async\.go:\d+ may still be writing it; Sync first`
}

// asyncWriteFile writes to a file an object an async kernel may still be
// writing: WriteFile reads its source.
func asyncWriteFile(s *gmac.Context, f *gmac.File) {
	p, _ := s.Alloc(64)
	s.Call("k", nil, gmac.Writes(p), gmac.Async())
	s.WriteFile(f, p, 64) // want `WriteFile reads p while the async kernel launched at async\.go:\d+ may still be writing it; Sync first`
	s.Sync()
	s.WriteFile(f, p, 64)
}

// staleSafe: a Safe pointer saved across a launch must be re-acquired.
// Passing dp *into* the Call is fine (arguments are read before the launch
// takes effect); using it afterwards is not.
func staleSafe(ctx *gmac.Context, p gmac.Ptr) uint64 {
	dp, _ := ctx.Safe(p)
	_ = ctx.Call("saxpy", []uint64{uint64(dp)})
	return uint64(dp) // want `dp holds a Safe\(\) pointer acquired before the Call at async\.go:\d+; kernel launches may migrate the object`
}

// reacquiredSafe: re-acquiring after the launch resets tracking.
func reacquiredSafe(ctx *gmac.Context, p gmac.Ptr) uint64 {
	dp, _ := ctx.Safe(p)
	_ = ctx.Call("saxpy", []uint64{uint64(dp)})
	dp, _ = ctx.Safe(p)
	return uint64(dp) // fine: fresh translation
}

func checksum(s *gmac.Context, p gmac.Ptr) byte {
	b, _ := s.HostRead(p, 64)
	var x byte
	for _, c := range b {
		x ^= c
	}
	return x
}
