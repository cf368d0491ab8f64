package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/mem"
)

// TestRegShardMaskCoversEveryGranule: every granule of an interval must map
// into the mask, or a point lookup in that granule would miss the interval.
func TestRegShardMaskCoversEveryGranule(t *testing.T) {
	cases := []struct {
		addr mem.Addr
		size int64
	}{
		{0x1000, 4096},         // within one granule
		{0xf_f000, 0x2000},     // straddles a granule boundary
		{0x100_0000, 40 << 20}, // 40 granules
		{0x7fff_0000, 1},       // single byte
		{mem.Addr(3) << regGranuleBits, 1 << regGranuleBits}, // exactly one granule
	}
	for _, c := range cases {
		mask := regShardMask(c.addr, c.size)
		for a := c.addr; a < c.addr+mem.Addr(c.size); a += mem.Addr(1) << regGranuleBits {
			if mask&(1<<regShardOf(a)) == 0 {
				t.Errorf("mask(%#x,+%d) misses shard of granule %#x", uint64(c.addr), c.size, uint64(a))
			}
		}
		// The end point's granule too, when the interval straddles into it.
		last := c.addr + mem.Addr(c.size) - 1
		if mask&(1<<regShardOf(last)) == 0 {
			t.Errorf("mask(%#x,+%d) misses shard of last byte %#x", uint64(c.addr), c.size, uint64(last))
		}
	}
}

// TestRegistryConcurrentLanes hammers the registry from several goroutines —
// disjoint per-lane address ranges, each lane inserting, looking up and
// removing its own objects while every lane also probes the others' ranges —
// and checks the final state. Run under -race this is the interleaving
// property test for the sharded fast path.
func TestRegistryConcurrentLanes(t *testing.T) {
	const (
		lanes   = 8
		objs    = 24
		objSize = 1 << 16
	)
	reg := &registry{}
	var wg sync.WaitGroup
	laneBase := func(l int) mem.Addr {
		// Lanes ≥ 2 granules apart so neighbouring lanes exercise
		// different shards most of the time.
		return mem.Addr(0x1000_0000) + mem.Addr(l)<<(regGranuleBits+1)
	}
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			base := laneBase(l)
			mine := make([]*Object, 0, objs)
			for i := 0; i < objs; i++ {
				o := &Object{addr: base + mem.Addr(i*objSize), size: objSize}
				if err := reg.insertObject(o); err != nil {
					t.Errorf("lane %d insert %d: %v", l, i, err)
					return
				}
				mine = append(mine, o)
				// Re-read everything inserted so far through the RCU path.
				for j, p := range mine {
					if got := reg.objectAt(p.addr + objSize/2); got != p {
						t.Errorf("lane %d: objectAt(obj %d) = %v, want %v", l, j, got, p)
						return
					}
				}
				// Probe a neighbour's range: nil or a valid object, never a
				// torn read (the race detector checks the rest).
				reg.objectAt(laneBase((l+1)%lanes) + mem.Addr(i*objSize))
			}
			// Remove the odd objects, keep the even ones.
			for i := 1; i < objs; i += 2 {
				reg.removeObject(mine[i])
			}
			// Free-and-reinsert into a hole: the new interval sorts before
			// the shard's last entry, so the insert takes the copy path
			// rather than the append path.
			hole := &Object{addr: mine[1].addr, size: objSize}
			if err := reg.insertObject(hole); err != nil {
				t.Errorf("lane %d reinsert into hole: %v", l, err)
				return
			}
			if got := reg.objectAt(hole.addr + objSize/2); got != hole {
				t.Errorf("lane %d: objectAt(hole) = %v, want %v", l, got, hole)
			}
			reg.removeObject(hole)
		}(l)
	}
	wg.Wait()
	for l := 0; l < lanes; l++ {
		base := laneBase(l)
		for i := 0; i < objs; i++ {
			got := reg.objectAt(base + mem.Addr(i*objSize))
			if i%2 == 0 && got == nil {
				t.Fatalf("lane %d object %d missing after stress", l, i)
			}
			if i%2 == 1 && got != nil {
				t.Fatalf("lane %d object %d still present after remove", l, i)
			}
		}
	}
	if want := int64(lanes * objs / 2); reg.nobjects.Load() != want {
		t.Fatalf("nobjects = %d, want %d", reg.nobjects.Load(), want)
	}
}

// TestIntervalArray covers the shard array helpers the registry is built
// from, one behaviour per case: withRun inserts (rejecting overlapping and
// empty intervals), without removes by exact start address, the arrays
// stay in address order, and findBlock charges the §5.2 probe count while
// findObject agrees with it. Each interval is a single-block object.
func TestIntervalArray(t *testing.T) {
	type iv struct {
		addr mem.Addr
		size int64
		bad  bool // the insert must be rejected
	}
	pages := func(n int) []iv {
		out := make([]iv, n)
		for i := range out {
			out[i] = iv{addr: mem.Addr(i) * 0x1000, size: 0x1000}
		}
		return out
	}
	cases := []struct {
		name   string
		insert []iv       // applied in order
		remove []mem.Addr // exact-start removes, applied after the inserts
		want   []mem.Addr // resulting interval starts; nil skips the check
		find   mem.Addr
		hit    bool // find lands in the interval starting at hitAt
		hitAt  mem.Addr
		probes int64
	}{
		{
			name: "overlap rejected",
			insert: []iv{
				{addr: 0x1000, size: 0x1000},
				{addr: 0x1800, size: 0x100, bad: true},  // inside
				{addr: 0x0800, size: 0x1000, bad: true}, // straddles start
				{addr: 0x1fff, size: 0x10, bad: true},   // straddles end
				{addr: 0x1000, size: 0x1000, bad: true}, // exact duplicate
				{addr: 0x2000, size: 0x100},             // adjacent after
				{addr: 0x0f00, size: 0x100},             // adjacent before
			},
			want: []mem.Addr{0x0f00, 0x1000, 0x2000},
			find: 0x1fff, hit: true, hitAt: 0x1000, probes: 1,
		},
		{
			name:   "invalid size",
			insert: []iv{{addr: 0x1000, size: 0, bad: true}},
			want:   []mem.Addr{},
			find:   0x1000, probes: 1,
		},
		{
			name:   "one past the end misses",
			insert: []iv{{addr: 0x1000, size: 0x100}},
			find:   0x1100, probes: 1,
		},
		{
			name:   "exact-start remove",
			insert: []iv{{addr: 0x1000, size: 0x100}, {addr: 0x2000, size: 0x100}},
			remove: []mem.Addr{0x2080, 0x1000, 0x1000}, // interior address, then twice
			want:   []mem.Addr{0x2000},
			find:   0x1050, probes: 1,
		},
		{
			name: "address order",
			insert: []iv{
				{addr: 0x5000, size: 0x100}, {addr: 0x1000, size: 0x100}, {addr: 0x3000, size: 0x100},
				{addr: 0x2000, size: 0x100}, {addr: 0x4000, size: 0x100},
			},
			want: []mem.Addr{0x1000, 0x2000, 0x3000, 0x4000, 0x5000},
			find: 0x4080, hit: true, hitAt: 0x4000, probes: 3,
		},
		{
			// The first entry of 1024 is the deepest hit: log2(1024)+1 probes.
			name:   "probes on a hit",
			insert: pages(1024),
			find:   0x500, hit: true, hitAt: 0, probes: 11,
		},
		{
			name:   "probes on a miss",
			insert: pages(1024),
			find:   0x1000_0000, probes: 10,
		},
		{
			name: "probes on an empty miss",
			want: []mem.Addr{},
			find: 0, probes: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var objs []*Object
			var blks []*Block
			for _, in := range c.insert {
				o := &Object{addr: in.addr, size: in.size}
				nextO, errO := withRun(objs, []*Object{o})
				nextB, errB := withRun(blks, []*Block{{obj: o, addr: in.addr, size: in.size}})
				if (errO != nil) != in.bad || (errB != nil) != in.bad {
					t.Fatalf("insert [%#x,+%d): err = %v/%v, want rejected %v",
						uint64(in.addr), in.size, errO, errB, in.bad)
				}
				if !in.bad {
					objs, blks = nextO, nextB
				}
			}
			for _, a := range c.remove {
				objs, blks = without(objs, a, a+1), without(blks, a, a+1)
			}
			if c.want != nil {
				got := make([]mem.Addr, len(blks))
				for i, b := range blks {
					got[i] = b.addr
				}
				if !slices.Equal(got, c.want) {
					t.Fatalf("starts = %#x, want %#x", got, c.want)
				}
			}
			b, probes := findBlock(blks, c.find)
			switch {
			case c.hit && (b == nil || b.addr != c.hitAt):
				t.Fatalf("findBlock(%#x) = %v, want the interval at %#x", uint64(c.find), b, uint64(c.hitAt))
			case !c.hit && b != nil:
				t.Fatalf("findBlock(%#x) = [%#x,+%d), want a miss", uint64(c.find), uint64(b.addr), b.size)
			}
			if probes != c.probes {
				t.Fatalf("findBlock(%#x) charged %d probes, want %d", uint64(c.find), probes, c.probes)
			}
			if o := findObject(objs, c.find); (b == nil && o != nil) || (b != nil && o != b.obj) {
				t.Fatalf("findObject(%#x) = %v, findBlock found %v", uint64(c.find), o, b)
			}
		})
	}
}
