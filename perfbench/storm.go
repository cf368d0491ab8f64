package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"repro/gmac"
	"repro/internal/workloads"
	"repro/machine"
)

// Shape of the fault-storm stream. One pass is stormRounds rounds over
// stormObjects live objects; each round draws a working set and does, in
// order, sequential read sweeps, random reads and writes, and a kernel
// call that writes part of the set. Free/Alloc churn runs every
// stormChurnEvery rounds.
const (
	stormObjects    = 1024
	stormObjBytes   = 64 << 10
	stormBlock      = 4 << 10
	stormDeviceMem  = 256 << 20
	stormRounds     = 400
	stormWorking    = 64 // objects in a round's working set
	stormSweeps     = 8  // working-set objects swept block by block
	stormSweepBytes = 64 // bytes read from each block by a sweep
	stormRandom     = 512
	stormWritePct   = 20 // share of random accesses that write
	stormMaxAccess  = 256
	stormCallObjs   = 16 // working-set objects the round's kernel writes
	stormChurnEvery = 8
	stormChurnObjs  = 8
	stormKernel     = "bump"
)

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opCall  // kernel writes slots
	opChurn // free and re-allocate slots
)

// op is one step of the stream. Objects are named by slot; the address a
// slot holds changes when churn re-allocates it.
type op struct {
	kind      opKind
	val       byte // byte written by opWrite, fill of a re-allocated object
	slot      int32
	off, size int32
	slots     []int32
}

// stormOps generates the access stream for seed.
func stormOps(seed uint64) []op {
	rng := workloads.NewRand(seed)
	perm := make([]int32, stormObjects)
	for i := range perm {
		perm[i] = int32(i)
	}
	// draw moves k distinct random slots to the front of perm.
	draw := func(k int) []int32 {
		for i := 0; i < k; i++ {
			j := i + rng.Intn(stormObjects-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		return append([]int32(nil), perm[:k]...)
	}
	var ops []op
	for r := 0; r < stormRounds; r++ {
		ws := draw(stormWorking)
		for _, slot := range ws[:stormSweeps] {
			for b := int32(0); b < stormObjBytes/stormBlock; b++ {
				ops = append(ops, op{kind: opRead, slot: slot, off: b * stormBlock, size: stormSweepBytes})
			}
		}
		for i := 0; i < stormRandom; i++ {
			size := int32(8 + rng.Intn(stormMaxAccess-8))
			o := op{kind: opRead, slot: ws[rng.Intn(len(ws))], off: int32(rng.Intn(stormObjBytes - int(size))), size: size}
			if rng.Intn(100) < stormWritePct {
				o.kind, o.val = opWrite, byte(rng.Uint64())
			}
			ops = append(ops, o)
		}
		call := make([]int32, stormCallObjs)
		for i := range call {
			call[i] = ws[(i*len(ws))/stormCallObjs]
		}
		ops = append(ops, op{kind: opCall, slots: call})
		if (r+1)%stormChurnEvery == 0 {
			ops = append(ops, op{kind: opChurn, slots: draw(stormChurnObjs), val: byte(rng.Uint64())})
		}
	}
	return ops
}

// storm is the state of one fault-storm pass: the session it drives, the
// pointer each slot holds, and a shadow copy of every object's expected
// contents against which each read is checked.
type storm struct {
	pc     *passCtx
	s      gmac.Session
	ptr    []gmac.Ptr
	shadow [][]byte
	buf    []byte
}

// stormPass builds one machine and rolling-update context, allocates the
// live objects (set-up), then replays the stream for seed (timed).
func stormPass(pc *passCtx, seed uint64) (passReport, error) {
	var rep passReport
	ops := stormOps(seed)
	t := pc.t
	t.setCell("storm")
	t.setPhase(true)
	start := time.Now()
	id := t.begin("machine.new")
	cfg := machine.PaperTestbedConfig()
	cfg.Accelerators[0].MemSize = stormDeviceMem
	m, err := machine.New(cfg)
	t.end(id)
	if err != nil {
		return rep, err
	}
	ctx, err := gmac.NewContext(m, gmac.Config{Protocol: gmac.RollingUpdate, BlockSize: stormBlock})
	if err != nil {
		return rep, err
	}
	ctx.Register(bumpKernel)
	st := &storm{
		pc:     pc,
		s:      pc.session(ctx, m),
		ptr:    make([]gmac.Ptr, stormObjects),
		shadow: make([][]byte, stormObjects),
		buf:    make([]byte, stormMaxAccess),
	}
	for slot := range st.ptr {
		if err := st.alloc(int32(slot), byte(slot*7+1)); err != nil {
			return rep, err
		}
	}
	pc.access = make(latencies, 0, len(ops))
	base := snapshot(m, ctx)
	t.setPhase(false)
	run, cpu := time.Now(), cpuTime()
	rep.Setup = run.Sub(start).Seconds()
	for i, o := range ops {
		if err := st.do(o); err != nil {
			return rep, fmt.Errorf("op %d: %w", i, err)
		}
		if o.kind == opCall {
			pc.sampleHeap() // once a round
		}
	}
	rep.Wall = time.Since(run).Seconds()
	rep.CPU = (cpuTime() - cpu).Seconds()
	rep.Sim = snapshot(m, ctx)
	rep.Sim.add(base, -1)
	if err := ctx.Manager().CheckInvariants(); !pc.tl.check(err == nil) {
		return rep, fmt.Errorf("invariants after storm: %w", err)
	}
	return rep, nil
}

// bumpKernel increments the first word of every object passed to it.
func bumpKernel() *gmac.Kernel {
	return &gmac.Kernel{
		Name: stormKernel,
		Run: func(dev *gmac.DeviceMemory, args []uint64) {
			for _, a := range args {
				p := gmac.Ptr(a)
				dev.SetUint32(p, dev.Uint32(p)+1)
			}
		},
		Cost: func(args []uint64) (float64, int64) { return float64(len(args)), int64(8 * len(args)) },
	}
}

// alloc gives slot a fresh object filled with val.
func (st *storm) alloc(slot int32, val byte) error {
	p, err := st.s.Alloc(stormObjBytes)
	if err != nil {
		return err
	}
	if err := st.s.Memset(p, val, stormObjBytes); err != nil {
		return err
	}
	st.ptr[slot] = p
	if st.shadow[slot] == nil {
		st.shadow[slot] = make([]byte, stormObjBytes)
	}
	sh := st.shadow[slot]
	for i := range sh {
		sh[i] = val
	}
	return nil
}

// do applies one op and checks every read against the shadow. Each call
// into the session counts as one attempted operation; the session times
// every access.
func (st *storm) do(o op) error {
	tl := &st.pc.tl
	switch o.kind {
	case opRead, opWrite:
		p := st.ptr[o.slot] + gmac.Ptr(o.off)
		sh := st.shadow[o.slot][o.off : o.off+o.size]
		b := st.buf[:o.size]
		var err error
		if o.kind == opRead {
			err = st.s.HostRead(p, b)
		} else {
			for i := range b {
				b[i] = o.val
			}
			err = st.s.HostWrite(p, b)
		}
		tl.attempt(err == nil)
		if err != nil {
			return err
		}
		if o.kind == opWrite {
			copy(sh, b)
		} else if !tl.check(bytes.Equal(b, sh)) {
			return fmt.Errorf("read of slot %d at %d returned stale data", o.slot, o.off)
		}
	case opCall:
		args := make([]uint64, len(o.slots))
		ptrs := make([]gmac.Ptr, len(o.slots))
		for i, slot := range o.slots {
			ptrs[i] = st.ptr[slot]
			args[i] = uint64(ptrs[i])
			sh := st.shadow[slot]
			binary.LittleEndian.PutUint32(sh, binary.LittleEndian.Uint32(sh)+1)
		}
		err := st.s.Call(stormKernel, args, gmac.Writes(ptrs...))
		tl.attempt(err == nil)
		return err
	case opChurn:
		for _, slot := range o.slots {
			err := st.s.Free(st.ptr[slot])
			tl.attempt(err == nil)
			if err != nil {
				return err
			}
			err = st.alloc(slot, o.val)
			tl.attempt(err == nil)
			if err != nil {
				return err
			}
		}
	}
	return nil
}
