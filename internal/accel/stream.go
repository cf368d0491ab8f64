package accel

import (
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Stream is an ordered command queue on a device, like a CUDA stream:
// operations within one stream execute in submission order; operations in
// different streams may overlap. The paper's §2.2 double-buffering
// baseline — the hand-tuned overlap GMAC automates — is written with two
// streams.
//
// The default-stream operations on Device (MemcpyH2DAsync, Launch, ...)
// are totally ordered with respect to each other; Stream operations only
// serialise behind the work already in their own stream, sharing the
// device's DMA engines and compute engine as resources.
type Stream struct {
	dev  *Device
	name string
	mu   sync.Mutex // guards last and ops
	// last is the completion of the most recently enqueued operation.
	last sim.Completion
	ops  int64
}

// NewStream creates an independent command queue on the device.
func (d *Device) NewStream(name string) *Stream {
	return &Stream{dev: d, name: name}
}

// Name returns the stream's diagnostic name.
func (s *Stream) Name() string { return s.name }

// Ops returns the number of operations enqueued so far.
func (s *Stream) Ops() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

// enqueue schedules a work item of duration d on resource r, no earlier
// than the stream's previous operation.
func (s *Stream) enqueue(r *sim.Resource, d sim.Time) sim.Completion {
	s.mu.Lock()
	earliest := s.dev.clock.Now()
	if s.last.At > earliest {
		earliest = s.last.At
	}
	done := r.Submit(earliest, d)
	s.last = done
	s.ops++
	s.mu.Unlock()
	// Device-wide synchronisation still waits for stream work.
	s.dev.notePending(done)
	return done
}

// MemcpyH2DAsync enqueues a host-to-device copy on the stream.
func (s *Stream) MemcpyH2DAsync(dst mem.Addr, src []byte) sim.Completion {
	s.dev.mu.Lock()
	s.dev.memory.Write(dst, src)
	s.dev.stats.BytesH2D += int64(len(src))
	s.dev.stats.CopiesH2D++
	s.dev.mu.Unlock()
	return s.enqueue(s.dev.dmaH2D, s.dev.cfg.H2D.TransferTime(int64(len(src))))
}

// MemcpyD2HAsync enqueues a device-to-host copy on the stream.
func (s *Stream) MemcpyD2HAsync(dst []byte, src mem.Addr) sim.Completion {
	s.dev.mu.Lock()
	s.dev.memory.Read(src, dst)
	s.dev.stats.BytesD2H += int64(len(dst))
	s.dev.stats.CopiesD2H++
	s.dev.mu.Unlock()
	return s.enqueue(s.dev.dmaD2H, s.dev.cfg.D2H.TransferTime(int64(len(dst))))
}

// Launch enqueues a kernel on the stream. Unlike the default stream, it is
// ordered only behind this stream's prior operations.
func (s *Stream) Launch(name string, args ...uint64) (sim.Completion, error) {
	k, ok := s.dev.Lookup(name)
	if !ok {
		return sim.Completion{}, fmt.Errorf("accel %s: unknown kernel %q", s.dev.cfg.Name, name)
	}
	s.dev.clock.Advance(s.dev.cfg.LaunchOverhead)
	if err := s.dev.launchFault(nil); err != nil {
		return sim.Completion{At: s.dev.clock.Now()}, err
	}
	s.dev.mu.Lock()
	k.Run(s.dev.memory, args)
	dur := k.cost(s.dev, args)
	s.dev.stats.Launches++
	s.dev.stats.KernelTime += dur
	s.dev.mu.Unlock()
	done := s.enqueue(s.dev.engine, dur)
	return done, nil
}

// Synchronize stalls the host until every operation enqueued on this
// stream completes (cudaStreamSynchronize) and returns the stall time.
func (s *Stream) Synchronize() sim.Time {
	s.mu.Lock()
	last := s.last
	s.mu.Unlock()
	return last.Wait(s.dev.clock, nil)
}

// FreeAt reports the virtual time at which the stream's queue drains.
func (s *Stream) FreeAt() sim.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last.At
}

// Query reports whether all enqueued operations have completed
// (cudaStreamQuery).
func (s *Stream) Query() bool {
	s.mu.Lock()
	last := s.last
	s.mu.Unlock()
	return last.Done(s.dev.clock.Now())
}

// WaitFor orders all future work on this stream after the given completion
// (cudaStreamWaitEvent): cross-stream dependencies without blocking the
// host.
func (s *Stream) WaitFor(c sim.Completion) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.last = sim.MaxCompletion(s.last, c)
}
