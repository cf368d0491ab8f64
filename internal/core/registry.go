package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
)

// This file is the object/block registry: the structure whose search the
// paper charges on every page fault (§5.2 keeps blocks in a balanced
// binary tree and attributes the small-block overhead to its O(log2 n)
// search). Here the O(log2 n) search is a binary search over an
// address-sorted array, and its probe count is the §5.2 charge
// (TreeNodeCost per probe, one probe for a miss on an empty shard).
//
// The registry is split into regShards address-range shards. Each shard
// publishes one immutable shardView — its objects and its blocks, both
// sorted by address — through an atomic pointer. Readers (the fault
// handler, object lookups, sweeps) load the current view and search it
// with no lock, so they are always fresh and never fall back to another
// structure. Writers (Alloc and Free, rare next to faults) build the next
// view under the shard's mutex and publish it. The VA allocator hands out
// ascending addresses, so an insert usually sorts after the shard's last
// entry and is appended in place (see withRun); only an insert into a hole
// or a remove copies the shard's arrays.
//
// Sharding is by address granule: the shard of an address is a
// multiplicative hash of its 1 MiB granule number, so consecutive granules
// spread across shards (disjoint benchmark objects land on different
// shards even when allocated back to back) while every lookup is a pure
// deterministic function of the address. An interval is inserted into
// every shard its granules hash to; a point lookup needs only the shard of
// its own granule, because any interval containing the address overlaps
// that granule.

const (
	// regShardBits sets the shard count. 16 shards comfortably exceeds the
	// simulated host's lane count while keeping the all-shards sweep of
	// Alloc/Free cheap.
	regShardBits = 4
	regShards    = 1 << regShardBits
	// regGranuleBits sets the 1 MiB address granule that maps to one shard.
	// Smaller would spread single objects over all shards (making Alloc
	// touch everything); larger would lump neighbouring benchmark objects
	// onto one shard and serialise their writers.
	regGranuleBits = 20
)

// regShardOf returns the shard owning addr's granule: a Fibonacci-hash
// spread of the granule number so address-adjacent granules land on
// different shards.
//
//adsm:noalloc
func regShardOf(addr mem.Addr) int {
	g := uint64(addr) >> regGranuleBits
	return int((g * 0x9e3779b97f4a7c15) >> (64 - regShardBits))
}

// regShardMask returns the bitmask of shards overlapped by
// [addr, addr+size), short-circuiting once every shard is included.
func regShardMask(addr mem.Addr, size int64) uint32 {
	if size <= 0 {
		size = 1
	}
	const full = uint32(1)<<regShards - 1
	first := uint64(addr) >> regGranuleBits
	last := (uint64(addr) + uint64(size) - 1) >> regGranuleBits
	var mask uint32
	for g := first; g <= last; g++ {
		mask |= 1 << regShardOf(mem.Addr(g<<regGranuleBits))
		if mask == full {
			break
		}
	}
	return mask
}

// shardView is one shard's published state: every object and every block
// overlapping the shard's granules, each array sorted by address. Entries
// below each array's length never change once published.
type shardView struct {
	objects []*Object
	blocks  []*Block
}

// emptyView stands in for a shard nothing was ever inserted into.
var emptyView shardView

// regShard is one slice of the registry.
type regShard struct {
	// mu serialises the shard's writers; readers never take it. Shards are
	// locked one at a time, never nested, so all shards share one level of
	// the hierarchy.
	//
	//adsm:lock shardMu 30
	mu   sync.Mutex
	view atomic.Pointer[shardView]
}

// load returns the shard's current view.
//
//adsm:noalloc
func (sh *regShard) load() *shardView {
	if v := sh.view.Load(); v != nil {
		return v
	}
	return &emptyView
}

// registry is the sharded object/block registry.
type registry struct {
	shards   [regShards]regShard
	nobjects atomic.Int64
}

// insertObject publishes o (and its blocks) to every shard its address
// range overlaps. Insert failures can only come from overlapping or empty
// intervals — a manager bug, since the VA space never double-allocates —
// and are returned with the shards before the failing one already updated.
func (r *registry) insertObject(o *Object) error {
	var blocks [regShards][]*Block
	for _, b := range o.blocks {
		mask := regShardMask(b.addr, b.size)
		for s := range blocks {
			if mask&(1<<s) != 0 {
				blocks[s] = append(blocks[s], b)
			}
		}
	}
	mask := regShardMask(o.addr, o.size)
	for s := range r.shards {
		if mask&(1<<s) == 0 {
			continue
		}
		sh := &r.shards[s]
		sh.mu.Lock()
		cur := sh.load()
		objs, err := withRun(cur.objects, []*Object{o})
		var blks []*Block
		if err == nil {
			blks, err = withRun(cur.blocks, blocks[s])
		}
		if err == nil {
			sh.view.Store(&shardView{objects: objs, blocks: blks})
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	r.nobjects.Add(1)
	return nil
}

// removeObject withdraws o and its blocks from every shard it was
// published to.
func (r *registry) removeObject(o *Object) {
	hi := o.addr + mem.Addr(o.size)
	mask := regShardMask(o.addr, o.size)
	for s := range r.shards {
		if mask&(1<<s) == 0 {
			continue
		}
		sh := &r.shards[s]
		sh.mu.Lock()
		cur := sh.load()
		sh.view.Store(&shardView{
			objects: without(cur.objects, o.addr, o.addr+1),
			blocks:  without(cur.blocks, o.addr, hi),
		})
		sh.mu.Unlock()
	}
	r.nobjects.Add(-1)
}

// objectAt returns the object containing addr, or nil.
//
//adsm:noalloc
func (r *registry) objectAt(addr mem.Addr) *Object {
	return findObject(r.shards[regShardOf(addr)].load().objects, addr)
}

// blockAt resolves the fault handler's block lookup: the block containing
// addr (nil if unshared) and the probe count charged as §5.2 search cost.
//
//adsm:noalloc
func (r *registry) blockAt(addr mem.Addr) (*Block, int64) {
	return findBlock(r.shards[regShardOf(addr)].load().blocks, addr)
}

// snapshot returns the live objects in address order. Each object is
// collected from its home shard only (the shard of its start address), so
// multi-shard objects appear exactly once; the final sort restores the
// global address order.
func (r *registry) snapshot() []*Object {
	objs := make([]*Object, 0, r.nobjects.Load())
	for s := range r.shards {
		for _, o := range r.shards[s].load().objects {
			if regShardOf(o.addr) == s {
				objs = append(objs, o)
			}
		}
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].addr < objs[j].addr })
	return objs
}

// interval is what a shard array holds: an object or a block, covering
// [Addr(), Addr()+Size()).
type interval interface {
	*Object | *Block
	Addr() mem.Addr
	Size() int64
}

// findObject binary-searches the sorted array s for the object containing
// addr, or nil.
//
//adsm:noalloc
func findObject(s []*Object, addr mem.Addr) *Object {
	for lo, hi := 0, len(s); lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		switch o := s[mid]; {
		case addr < o.addr:
			hi = mid
		case addr >= o.addr+mem.Addr(o.size):
			lo = mid + 1
		default:
			return o
		}
	}
	return nil
}

// findBlock binary-searches the sorted array s for the block containing
// addr (nil if none) and returns it with the number of probes. It repeats
// findObject's loop rather than sharing a generic one: type-parameter
// method calls go through a dictionary, which tripled the lookup's cost.
//
//adsm:noalloc
func findBlock(s []*Block, addr mem.Addr) (*Block, int64) {
	probes := int64(0)
	for lo, hi := 0, len(s); lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		probes++
		switch b := s[mid]; {
		case addr < b.addr:
			hi = mid
		case addr >= b.addr+mem.Addr(b.size):
			lo = mid + 1
		default:
			return b, probes
		}
	}
	return nil, max(probes, 1) // even an empty shard costs one probe to miss
}

// withRun returns the sorted array s with the sorted run added. Every
// entry must be non-empty and disjoint from the others. When the run sorts
// after the last entry of s it is appended, sharing s's backing array:
// holders of s never index past its length, so they cannot observe the
// new tail. Otherwise the result is a fresh merged copy.
func withRun[T interval](s, run []T) ([]T, error) {
	for i, e := range run {
		if e.Size() <= 0 {
			return nil, fmt.Errorf("core: invalid interval size %d", e.Size())
		}
		if i > 0 {
			if err := ordered(run[i-1], e); err != nil {
				return nil, err
			}
		}
	}
	if len(run) == 0 {
		return s, nil
	}
	if len(s) == 0 || end(s[len(s)-1]) <= run[0].Addr() {
		return append(s, run...), nil
	}
	out := make([]T, 0, len(s)+len(run))
	i := 0
	for _, e := range run {
		for ; i < len(s) && s[i].Addr() < e.Addr(); i++ {
			out = append(out, s[i])
		}
		out = append(out, e)
	}
	out = append(out, s[i:]...)
	for k := 1; k < len(out); k++ {
		if err := ordered(out[k-1], out[k]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// end returns the first address past e.
func end[T interval](e T) mem.Addr { return e.Addr() + mem.Addr(e.Size()) }

// ordered reports an error unless b starts at or after the end of a.
func ordered[T interval](a, b T) error {
	if b.Addr() < end(a) {
		return fmt.Errorf("core: interval [%#x,+%d) overlaps [%#x,+%d)",
			uint64(b.Addr()), b.Size(), uint64(a.Addr()), a.Size())
	}
	return nil
}

// without returns s minus the entries starting in [lo, hi), as a fresh
// copy (s itself if nothing matches).
func without[T interval](s []T, lo, hi mem.Addr) []T {
	i := sort.Search(len(s), func(i int) bool { return s[i].Addr() >= lo })
	j := i
	for j < len(s) && s[j].Addr() < hi {
		j++
	}
	if i == j {
		return s
	}
	out := make([]T, 0, len(s)-(j-i))
	return append(append(out, s[:i]...), s[j:]...)
}
