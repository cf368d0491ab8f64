// Package basic exercises the coherence analyzer: async host reads
// before Sync and stale Safe pointers.
package basic

import "gmac"

// asyncThenRead: reading kernel output before Sync observes stale data.
func asyncThenRead(ctx *gmac.Context, p gmac.Ptr) {
	_ = ctx.Call("saxpy", nil, gmac.Async())
	_, _ = ctx.HostRead(p, 4) // want `HostRead on ctx may observe stale data`
	_ = ctx.Sync()
	_, _ = ctx.HostRead(p, 4) // after Sync: fine
}

// allowedAsyncRead: the escape hatch suppresses the finding.
func allowedAsyncRead(ctx *gmac.Context, p gmac.Ptr) {
	_ = ctx.Call("saxpy", nil, gmac.Async())
	//adsm:allow coherence
	_, _ = ctx.HostRead(p, 4)
}

// asyncWithWrites: only the annotated written pointers taint reads.
func asyncWithWrites(ctx *gmac.Context, p, q gmac.Ptr) {
	_ = ctx.Call("saxpy", nil, gmac.Async(), gmac.Writes(p))
	_, _ = ctx.HostRead(q, 4) // q is not written: fine
	_, _ = ctx.HostRead(p, 4) // want `HostRead on ctx may observe stale data`
}

// syncCallIsBarrier: a synchronous Call ends in Sync, completing earlier
// async launches.
func syncCallIsBarrier(ctx *gmac.Context, p gmac.Ptr) {
	_ = ctx.Call("saxpy", nil, gmac.Async())
	_ = ctx.Call("saxpy", nil)
	_, _ = ctx.HostRead(p, 4) // fine: the synchronous Call drained the queue
}

// staleSafe: a Safe pointer saved across a launch must be re-acquired.
// Passing dp *into* the Call is fine (arguments are read before the launch
// takes effect); using it afterwards is not.
func staleSafe(ctx *gmac.Context, p gmac.Ptr) uint64 {
	dp, _ := ctx.Safe(p)
	_ = ctx.Call("saxpy", []uint64{uint64(dp)})
	return uint64(dp) // want `dp holds a Safe\(\) pointer acquired before the Call`
}

// reacquiredSafe: re-acquiring after the launch resets tracking.
func reacquiredSafe(ctx *gmac.Context, p gmac.Ptr) uint64 {
	dp, _ := ctx.Safe(p)
	_ = ctx.Call("saxpy", []uint64{uint64(dp)})
	dp, _ = ctx.Safe(p)
	return uint64(dp) // fine: fresh translation
}
