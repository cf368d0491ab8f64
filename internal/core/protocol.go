package core

import (
	"fmt"

	"repro/internal/hostmmu"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the coherence-protocol engine. The protocol is a per-object
// property (Object.proto): most objects run the manager's configured
// protocol, but ModeAuto objects migrate between protocols online (mode.go),
// so every dispatch switches on the object rather than the manager. All
// actions run on the CPU timeline; the accelerator performs no coherence
// work.
//
// The release sweep (releaseAll, before a kernel launch) and the acquire
// sweep (acquireAll, after kernel completion) also honour the declared
// access modes: read-only objects seal instead of travelling, write-only
// objects skip fetches of data the host will overwrite, and per-call hints
// elide flushes and invalidations the kernel's declaration proves
// unnecessary.

// setProtObject changes the protection of a whole object with a single
// mprotect call (one charge, covering all pages).
func (m *Manager) setProtObject(l *sim.Lane, o *Object, prot hostmmu.Prot) {
	m.charge(l, sim.CatSignal, m.cfg.MprotectCost)
	if err := m.mmu.Mprotect(o.addr, m.pageAlignedSize(o.size), prot); err != nil {
		panic(fmt.Sprintf("core: mprotect of live object failed: %v", err))
	}
}

// protoAlloc sets the initial state and protection of a new object, by its
// governing protocol.
func (m *Manager) protoAlloc(o *Object) {
	switch o.proto {
	case BatchUpdate:
		// Pages stay read/write: batch-update never takes faults. Every
		// object crosses the bus in both directions at every call/return
		// boundary, with no access detection at all — what programmers tend
		// to write first (Section 5.1 measures slowdowns of up to 65x).
		for _, b := range o.blocks {
			b.state = StateDirty
		}
	case LazyUpdate, RollingUpdate:
		// Lazy-update detects CPU accesses with the memory protection
		// hardware at object granularity; rolling-update refines it with
		// fixed-size blocks and a bounded rolling cache of dirty blocks.
		for _, b := range o.blocks {
			b.state = StateReadOnly
		}
		m.setProtObject(nil, o, hostmmu.ProtRead)
	}
}

// protoFault resolves a protection fault on a block (the Figure 6 edges)
// per the faulted object's governing protocol. The caller holds b.obj.mu.
//
//adsm:noalloc
func (m *Manager) protoFault(l *sim.Lane, b *Block, access hostmmu.Access) error {
	switch b.obj.proto {
	case BatchUpdate:
		// Batch-update leaves pages read/write; a fault can only mean a
		// manager bug (mode violations were vetted before dispatch).
		return errBatchFault(access, b.addr)
	case LazyUpdate:
		return resolveFault(m, l, b, access)
	case RollingUpdate:
		return m.rollingFault(l, b, access)
	}
	return errBatchFault(access, b.addr) // unreachable: proto is validated
}

// rollingFault is the rolling-update fault edge: resolve like lazy-update,
// then enqueue newly dirty blocks in the rolling cache, flushing the
// eviction run that falls out. The caller holds b.obj.mu.
func (m *Manager) rollingFault(l *sim.Lane, b *Block, access hostmmu.Access) error {
	if err := resolveFault(m, l, b, access); err != nil {
		return err
	}
	if b.state == StateDirty && !b.obj.degraded.Load() {
		if victim, run := m.rolling.push(b); victim != nil {
			m.noteEviction(l, victim, run)
			if victim.obj == b.obj {
				// Same object: this fault already holds its lock. The run's
				// blocks were just popped and cannot have been re-queued, so
				// skip the queued re-check.
				if err := m.flushEvicted(l, victim, run, false); err != nil {
					return err
				}
			} else {
				// Flushing now would need a second Object.mu; defer to the
				// entry point, which drains after releasing its own lock.
				m.deferEviction(victim, run)
			}
		}
		occ := int64(m.rolling.Len())
		m.mets.rollingOcc.Set(occ)
		m.mets.rollingHist.Observe(occ)
	}
	return nil
}

// haveRollingWork reports whether the release sweep must drain the rolling
// cache: always under a rolling-update manager, and whenever auto-mode
// migration has moved any object onto rolling-update.
func (m *Manager) haveRollingWork() bool {
	return m.cfg.Protocol == RollingUpdate || m.rollingObjs.Load() > 0
}

// releaseAll runs the release actions of a kernel invocation: the rolling
// cache is drained first, then every object in the call's scope is released
// under its own protocol and access mode. The caller holds callMu.
func (m *Manager) releaseAll(l *sim.Lane, ih *invokeHints) error {
	if m.haveRollingWork() {
		if err := m.releaseRollingCache(l, ih); err != nil {
			return err
		}
	}
	var err error
	m.eachInvokeObject(func(o *Object) {
		if err != nil || o.degraded.Load() {
			return
		}
		err = m.releaseObject(l, o, ih)
	})
	return err
}

// releaseRollingCache flushes the rolling cache (the remaining dirty blocks
// of rolling-governed objects). Out-of-scope dirty blocks (objects bound to
// other kernels, §3.3) are flushed too — flushing early is always safe and
// keeps the cache bookkeeping simple — but they are not invalidated by the
// release sweep. Blocks of objects the call hints as fully overwritten are
// left dirty for releaseObject to invalidate without the write-back.
func (m *Manager) releaseRollingCache(l *sim.Lane, ih *invokeHints) error {
	defer m.mets.rollingOcc.Set(0)
	var err error
	drained := m.rolling.drain()
	for i := 0; i < len(drained); {
		// Group queue-adjacent, address-contiguous blocks of one object into
		// a run: streaming writers fill the cache in address order, so the
		// invocation flush collapses into a few large DMA transfers.
		j := i + 1
		if !m.cfg.DisableCoalescing {
			for j < len(drained) && drained[j].obj == drained[j-1].obj &&
				drained[j].index == drained[j-1].index+1 {
				j++
			}
		}
		first := drained[i]
		o := first.obj
		if ih.wo[o] && o.UsedBy(m.invokeKernel) {
			// The kernel declared it fully overwrites o: its dirty data is
			// dead, so skip the write-back. releaseObject invalidates the
			// blocks and books the elision.
			i = j
			continue
		}
		o.mu.Lock()
		if !o.dead && !o.degraded.Load() {
			// flushEvicted skips the stretches a racing drain already
			// flushed, writes back the dirty ones run-wise, and downgrades
			// them to ReadOnly so the next CPU write faults again. Objects
			// the sweep below invalidates get their object-wide ProtNone
			// afterwards, superseding the per-run downgrade.
			if e := m.flushEvicted(l, first, j-i, false); e != nil {
				// Escalated: o is degraded and keeps its data host-side.
				// Finish the walk so other objects' blocks are not left
				// dirty-but-unqueued, then fail the invocation.
				err = e
			}
		}
		o.mu.Unlock()
		i = j
	}
	return err
}

// releaseObject performs one object's release actions, honouring its access
// mode before its protocol: read-only objects seal (replicate once) instead
// of travelling, objects hinted write-only for this call invalidate without
// the flush, and everything else follows its protocol's release edge. The
// caller holds o.mu; o is live and not degraded.
func (m *Manager) releaseObject(l *sim.Lane, o *Object, ih *invokeHints) error {
	if o.mode == ModeReadOnly {
		return m.sealReadOnly(l, o)
	}
	if ih.wo[o] {
		return m.invalidateUnflushed(l, o)
	}
	written := ih.written(o)
	switch o.proto {
	case BatchUpdate:
		// Transfer every dirty block synchronously, then invalidate the host
		// copy ("system memory gets invalidated on kernel calls"). Blocks
		// already invalidated by a preceding call in the same call/return
		// window are not re-sent — re-sending would clobber in-flight kernel
		// output.
		for _, b := range o.blocks {
			if b.state == StateDirty {
				if err := m.flushBlockSync(l, b); err != nil {
					return err
				}
			}
			// Non-written objects keep their Dirty state: batch-update has
			// no access detection, so it cannot know whether the CPU will
			// modify them and must conservatively re-send every call.
			if written {
				b.state = StateInvalid
			}
		}
	case LazyUpdate, RollingUpdate:
		// Under rolling-update the cache drain has already flushed queued
		// blocks; a dirty block here would be a bookkeeping bug under
		// rolling, and is the normal case under lazy. Flush eagerly either
		// way.
		for _, b := range o.blocks {
			if b.state == StateDirty {
				if err := m.flushBlockEager(l, b); err != nil {
					return err
				}
				b.state = StateReadOnly
				if !written {
					// Both copies now match; catch the next CPU write.
					m.setProt(l, b, hostmmu.ProtRead)
				}
			}
			if written {
				b.state = StateInvalid
			}
		}
		if written {
			m.setProtObject(l, o, hostmmu.ProtNone)
		}
	}
	return nil
}

// acquireAll runs the acquire actions after kernel completion. Under the
// default modes only batch-update has acquire work, so the sweep is skipped
// entirely — with zero allocations — unless the configured protocol is
// batch-update or some object carries a non-default access mode. The caller
// holds callMu.
func (m *Manager) acquireAll(l *sim.Lane) error {
	if m.cfg.Protocol != BatchUpdate && m.moded.Load() == 0 {
		return nil
	}
	var err error
	m.eachInvokeObject(func(o *Object) {
		if err != nil || o.degraded.Load() {
			return
		}
		err = m.acquireObject(l, o)
	})
	return err
}

// acquireObject performs one object's acquire actions: the protocol's
// Figure 6 return edge, narrowed by the access mode, then the auto-mode
// migration step. The caller holds o.mu; o is live and not degraded.
func (m *Manager) acquireObject(l *sim.Lane, o *Object) error {
	if o.mode == ModeReadOnly && o.sealed {
		// Replicated once: both copies are identical forever, so nothing
		// travels. Under batch-update every block's return fetch is elided.
		if o.proto == BatchUpdate {
			m.stats.FetchElisions.Add(int64(len(o.blocks)))
		}
		return nil
	}
	switch o.proto {
	case BatchUpdate:
		if o.mode == ModeWriteOnly {
			// The host only writes o: fetching kernel output it will never
			// read is pure waste. Leave every block Dirty so the next
			// release re-sends whatever the host produces.
			for _, b := range o.blocks {
				b.state = StateDirty
			}
			m.stats.FetchElisions.Add(int64(len(o.blocks)))
			break
		}
		// Transfer every block of the call's scope back and mark it dirty,
		// implicitly invalidating the accelerator copy. Objects bound to
		// other kernels never went to the device for this call, so fetching
		// them would clobber the host's authoritative copy.
		for _, b := range o.blocks {
			if err := m.fetchBlockSync(l, b); err != nil {
				return err
			}
			b.state = StateDirty
		}
	case LazyUpdate, RollingUpdate:
		// Nothing: blocks stay invalid until the CPU actually touches them.
	}
	if o.mode == ModeAuto {
		return m.autoStep(l, o)
	}
	return nil
}

// sealReadOnly replicates a ModeReadOnly object once and seals it: dirty
// initialisation data is flushed, every block lands ReadOnly behind
// read-only pages, and from here on the object is never flushed, fetched or
// invalidated again — zero fault-service DMA for the rest of its life.
// Host writes after the seal fault and fail with ErrModeViolation
// (checkModeFault). The caller holds o.mu.
func (m *Manager) sealReadOnly(l *sim.Lane, o *Object) error {
	if o.sealed {
		return nil
	}
	if o.proto == RollingUpdate {
		// Queued dirty blocks are flushed right here; drop the cache's claim.
		m.rolling.forget(o)
	}
	for _, b := range o.blocks {
		switch b.state {
		case StateDirty:
			if err := m.flushBlockEager(l, b); err != nil {
				return err
			}
		case StateInvalid:
			// Unreachable today — read-only objects are never invalidated —
			// but fetch defensively so the seal never publishes stale bytes.
			if err := m.fetchBlockSync(l, b); err != nil {
				return err
			}
		case StateReadOnly:
		}
		b.state = StateReadOnly
	}
	m.setProtObject(l, o, hostmmu.ProtRead)
	o.sealed = true
	return nil
}

// invalidateUnflushed invalidates o without flushing its dirty data: the
// kernel declared (WriteOnlyHint) that it fully overwrites the object, so
// the host-dirty bytes are dead and the write-back DMA is elided. The
// caller holds o.mu.
func (m *Manager) invalidateUnflushed(l *sim.Lane, o *Object) error {
	elided := int64(0)
	for _, b := range o.blocks {
		if b.state == StateDirty {
			elided++
		}
		b.state = StateInvalid
	}
	if elided > 0 {
		m.stats.FlushElisions.Add(elided)
	}
	if o.proto != BatchUpdate {
		m.setProtObject(l, o, hostmmu.ProtNone)
	}
	return nil
}

// maxFaultRun caps a span-fault batch, mirroring maxEvictRun on the
// eviction side: one fault-service DMA covers at most this many blocks.
const maxFaultRun = 16

// faultRunLen decides how many blocks the fault on b should fetch in one
// DMA, and advances the object's adaptive streak state. The span starts at
// one block, doubles each time a fault lands exactly where the previous
// run ended (a sequential streak: the streaming pattern Cudennec's S-DSM
// survey identifies as the granularity win), and resets to one block on
// any other fault (random access must not over-fetch). The returned run
// never exceeds the contiguous stretch of Invalid blocks from b, the
// adaptive span, maxFaultRun, or the object end. The caller holds
// b.obj.mu; b is StateInvalid.
//
//adsm:noalloc
func (m *Manager) faultRunLen(b *Block) int {
	o := b.obj
	if m.cfg.DisableFaultBatching || len(o.blocks) == 1 {
		return 1
	}
	span := 1
	if b.index == o.nextFaultIdx {
		span = o.fetchSpan * 2
		if span > maxFaultRun {
			span = maxFaultRun
		}
		if span > o.fetchSpan {
			m.stats.SpanPromotions.Add(1)
		}
	} else if o.fetchSpan > 1 {
		m.stats.SpanDemotions.Add(1)
	}
	o.fetchSpan = span
	n := 1
	for n < span && b.index+n < len(o.blocks) && o.blocks[b.index+n].state == StateInvalid {
		n++
	}
	o.nextFaultIdx = b.index + n
	return n
}

// resolveFault implements the shared Figure 6(b) transitions for lazy- and
// rolling-update: Invalid data is fetched from the accelerator; the block
// lands in ReadOnly after a read fault or Dirty after a write fault.
// Write-only objects skip the fetch on a write fault — the host promised to
// overwrite the block, so Invalid bytes never DMA host-ward.
//
//adsm:noalloc
func resolveFault(m *Manager, l *sim.Lane, b *Block, access hostmmu.Access) error {
	// A fault on an object whose device is already known-lost degrades it in
	// place: the host copy (stale or not) becomes authoritative, matching the
	// drainEvictions sweep instead of failing the access.
	before := b.state
	if m.degradedLocked(l, b.obj) {
		m.emitTransition(l, b, before)
		return nil
	}
	switch b.state {
	case StateInvalid:
		if access == hostmmu.AccessWrite && b.obj.mode == ModeWriteOnly {
			m.stats.FetchElisions.Add(1)
			b.state = StateDirty
			m.setProt(l, b, hostmmu.ProtReadWrite)
			m.emitTransition(l, b, before)
			return nil
		}
		n := m.faultRunLen(b)
		if n == 1 {
			if err := m.fetchBlockSync(l, b); err != nil {
				m.emitTransition(l, b, before)
				return err
			}
			if access == hostmmu.AccessWrite {
				b.state = StateDirty
				m.setProt(l, b, hostmmu.ProtReadWrite)
			} else {
				b.state = StateReadOnly
				m.setProt(l, b, hostmmu.ProtRead)
			}
			m.emitTransition(l, b, before)
			return nil
		}
		// Span batch: fetch the whole Invalid run in one DMA. Prefetched
		// blocks land ReadOnly — both copies match, and the next CPU write
		// still faults — while the faulting block itself transitions by
		// access kind exactly as the single-block path does.
		if err := m.fetchRunSync(l, b, n); err != nil {
			m.emitTransition(l, b, before)
			return err
		}
		o := b.obj
		for i := 1; i < n; i++ {
			o.blocks[b.index+i].state = StateReadOnly
		}
		if access == hostmmu.AccessWrite {
			b.state = StateDirty
			m.setProt(l, b, hostmmu.ProtReadWrite)
			m.setProtRun(l, o.blocks[b.index+1], n-1, hostmmu.ProtRead)
		} else {
			b.state = StateReadOnly
			m.setProtRun(l, b, n, hostmmu.ProtRead)
		}
		m.emitTransition(l, b, before)
		return nil
	case StateReadOnly:
		if access != hostmmu.AccessWrite {
			return errReadFaultOnReadOnly(b.addr)
		}
		b.state = StateDirty
		m.setProt(l, b, hostmmu.ProtReadWrite)
		m.emitTransition(l, b, before)
		return nil
	default: // StateDirty
		return errFaultOnDirty(access, b.addr)
	}
}

// The impossible-transition errors below can only fire on a manager bug;
// their formatting lives off the //adsm:noalloc fault paths.

//adsm:cold
func errBatchFault(access hostmmu.Access, addr mem.Addr) error {
	return fmt.Errorf("core: unexpected %v fault at %#x under batch-update",
		access, uint64(addr))
}

//adsm:cold
func errReadFaultOnReadOnly(addr mem.Addr) error {
	return fmt.Errorf("core: read fault on ReadOnly block %#x", uint64(addr))
}

//adsm:cold
func errFaultOnDirty(access hostmmu.Access, addr mem.Addr) error {
	return fmt.Errorf("core: %v fault on Dirty block %#x", access, uint64(addr))
}

// emitTransition records a block state transition when tracing is on; the
// hot path (no tracer) pays a single nil check and no deferred closure.
func (m *Manager) emitTransition(l *sim.Lane, b *Block, before State) {
	if m.tracer == nil || b.state == before {
		return
	}
	m.emit(l, trace.Event{Kind: trace.EvTransition, Addr: b.addr, Size: b.size,
		From: before.String(), To: b.state.String()})
}
