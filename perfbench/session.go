package main

import (
	"time"

	"repro/gmac"
	"repro/internal/accel"
	"repro/internal/hostmmu"
	"repro/internal/mem"
	"repro/internal/osabs"
	"repro/machine"
)

// tracer records spans around the calls the benchmark makes into each
// layer. A nil *tracer is the untraced pass: every method is then a no-op.
type tracer struct {
	rec *recorder
	// wrapped holds the kernels whose Run is already timed; kernels
	// remembers the names seen at Call, so a CUDA cell of the same
	// benchmark can wrap them too.
	wrapped map[*accel.Kernel]bool
	kernels map[string]bool
}

func newTracer() *tracer {
	return &tracer{rec: newRecorder(), wrapped: map[*accel.Kernel]bool{}, kernels: map[string]bool{}}
}

func (t *tracer) setCell(cell string) {
	if t != nil {
		t.rec.cell = cell
	}
}

// setPhase marks whether the spans that follow are set-up or timed.
func (t *tracer) setPhase(setup bool) {
	if t != nil {
		t.rec.setup = setup
	}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	return t.rec.begin(name)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.rec.end(id)
	}
}

// wrapKernel times the body of the named kernel, looked up on dev.
func (t *tracer) wrapKernel(dev *accel.Device, name string) {
	if t == nil {
		return
	}
	t.kernels[name] = true
	k, ok := dev.Lookup(name)
	if !ok || t.wrapped[k] {
		return
	}
	t.wrapped[k] = true
	body := k.Run
	k.Run = func(d *mem.Space, args []uint64) {
		id := t.rec.begin("accel.kernel")
		body(d, args)
		t.rec.end(id)
	}
}

// wrapKnownKernels times every kernel a GMAC cell has called that dev
// also has registered.
func (t *tracer) wrapKnownKernels(dev *accel.Device) {
	if t == nil {
		return
	}
	for name := range t.kernels {
		t.wrapKernel(dev, name)
	}
}

// session wraps ctx in the Session the workload drives. It times every
// HostRead and HostWrite into pc.access. In a traced pass it also records
// gmac.* spans, and the MMU handler records a core.fault span around
// Manager.HandleFault.
func (pc *passCtx) session(ctx *gmac.Context, m *machine.Machine) gmac.Session {
	if t := pc.t; t != nil {
		mgr := ctx.Manager()
		m.MMU.SetHandler(func(f hostmmu.Fault) error {
			id := t.rec.begin("core.fault")
			err := mgr.HandleFault(f)
			t.rec.end(id)
			return err
		})
	}
	return &session{Session: ctx, pc: pc, t: pc.t, dev: m.Device(), mmu: m.MMU}
}

// session wraps the Session entry points the workloads call.
type session struct {
	gmac.Session
	pc  *passCtx
	t   *tracer
	dev *accel.Device
	mmu *hostmmu.MMU
}

func (s *session) Alloc(size int64, opts ...gmac.AllocOption) (gmac.Ptr, error) {
	defer s.t.end(s.t.begin("gmac.alloc"))
	return s.Session.Alloc(size, opts...)
}

func (s *session) Free(p gmac.Ptr) error {
	defer s.t.end(s.t.begin("gmac.free"))
	return s.Session.Free(p)
}

func (s *session) Call(kernel string, args []uint64, opts ...gmac.CallOption) error {
	s.t.wrapKernel(s.dev, kernel)
	defer s.t.end(s.t.begin("gmac.call"))
	return s.Session.Call(kernel, args, opts...)
}

func (s *session) ReadFile(f *osabs.File, p gmac.Ptr, n int64) (int64, error) {
	defer s.t.end(s.t.begin("gmac.io"))
	return s.Session.ReadFile(f, p, n)
}

func (s *session) WriteFile(f *osabs.File, p gmac.Ptr, n int64) (int64, error) {
	defer s.t.end(s.t.begin("gmac.io"))
	return s.Session.WriteFile(f, p, n)
}

func (s *session) HostRead(p gmac.Ptr, dst []byte) error {
	a := s.beginAccess()
	err := s.Session.HostRead(p, dst)
	s.endAccess(a)
	return err
}

func (s *session) HostWrite(p gmac.Ptr, src []byte) error {
	a := s.beginAccess()
	err := s.Session.HostWrite(p, src)
	s.endAccess(a)
	return err
}

// access marks the start of one HostRead or HostWrite.
type access struct {
	start  time.Time
	span   int
	faults int64 // MMU faults before the access (traced passes)
}

func (s *session) beginAccess() access {
	a := access{span: s.t.begin("gmac.access")}
	if s.t != nil {
		a.faults = s.mmu.Stats().Faults
	}
	a.start = time.Now()
	return a
}

// endAccess records the access's duration. A traced span is renamed
// gmac.access_hit or gmac.access_fault by whether the MMU delivered a
// fault during it.
func (s *session) endAccess(a access) {
	s.pc.access = append(s.pc.access, time.Since(a.start))
	if s.t == nil {
		return
	}
	s.t.end(a.span)
	if s.mmu.Stats().Faults == a.faults {
		s.t.rec.rename(a.span, "gmac.access_hit")
	} else {
		s.t.rec.rename(a.span, "gmac.access_fault")
	}
}
