// Package basic exercises the modecheck analyzer: host accesses that
// violate the declared gmac access mode, directly, through local helper
// chains, and through a sibling-package helper. Async reads before Sync and
// stale Safe pointers are in the sibling fixture modecheck/async.
package basic

import (
	"gmac"

	"modecheck/basic/helper"
)

// hostWriteReadOnly writes a ReadOnly object from the host.
func hostWriteReadOnly(s *gmac.Context, src []byte) {
	p, _ := s.Alloc(64, gmac.Mode(gmac.ReadOnly))
	s.HostWrite(p, src) // want `HostWrite writes p, which is allocated gmac\.ReadOnly at basic\.go:\d+; writes to ReadOnly objects fail with ErrModeViolation`
}

// kernelWritesReadOnly declares a kernel write of a ReadOnly object.
func kernelWritesReadOnly(s *gmac.Context) {
	p, _ := s.Alloc(64, gmac.Mode(gmac.ReadOnly))
	s.Call("k", nil, gmac.Writes(p)) // want `kernel declares Writes\(p\), but p is allocated gmac\.ReadOnly at basic\.go:\d+; ReadOnly objects are sealed after their first release \(ErrModeViolation at run time\)`
}

// readWriteOnlyUnwritten reads a WriteOnly object before anything has
// written it.
func readWriteOnlyUnwritten(s *gmac.Context) {
	p, _ := s.Alloc(64, gmac.Mode(gmac.WriteOnly))
	s.HostRead(p, 64) // want `HostRead reads p, which is allocated gmac\.WriteOnly at basic\.go:\d+ and not yet written; reads of WriteOnly objects fail with ErrModeViolation`
}

// readWriteOnlyWritten is the fixed variant: a kernel write populates the
// object before the host read.
func readWriteOnlyWritten(s *gmac.Context) {
	p, _ := s.Alloc(64, gmac.Mode(gmac.WriteOnly))
	s.Call("fill", nil, gmac.Writes(p))
	s.HostRead(p, 64)
}

// scrubReadOnly reaches a Memset of a ReadOnly object through two local
// helpers: the diagnostic chain must render both frames.
func scrubReadOnly(s *gmac.Context) {
	p, _ := s.Alloc(64, gmac.Mode(gmac.ReadOnly))
	scrub(s, p) // want `Memset writes p, which is allocated gmac\.ReadOnly at basic\.go:\d+; writes to ReadOnly objects fail with ErrModeViolation \(via basic\.scrub at basic\.go:\d+ -> basic\.wipe at basic\.go:\d+\)`
}

func scrub(s *gmac.Context, p gmac.Ptr) {
	wipe(s, p)
}

func wipe(s *gmac.Context, p gmac.Ptr) {
	s.Memset(p, 0, 64)
}

// fillReadOnly writes a ReadOnly object through the sibling-package
// helper: the effect crosses the package boundary via its summary.
func fillReadOnly(s *gmac.Context) {
	p, _ := s.Alloc(64, gmac.Mode(gmac.ReadOnly))
	helper.Fill(s, p, 1) // want `Memset writes p, which is allocated gmac\.ReadOnly at basic\.go:\d+; writes to ReadOnly objects fail with ErrModeViolation \(via helper\.Fill at basic\.go:\d+\)`
}

// fillDefault is the same call on a mode-less allocation: fine.
func fillDefault(s *gmac.Context) {
	p, _ := s.Alloc(64)
	helper.Fill(s, p, 1)
}

// asyncReadViaHelper reads, through a helper, an object an async kernel
// may still be writing.
func asyncReadViaHelper(s *gmac.Context) {
	p, _ := s.Alloc(64)
	s.Call("k", nil, gmac.Writes(p), gmac.Async())
	checksum(s, p) // want `HostRead reads p while the async kernel launched at basic\.go:\d+ may still be writing it; Sync first \(via basic\.checksum at basic\.go:\d+\)`
}

// asyncReadSynced is the fixed variant: Sync lands the kernel's writes
// before the helper reads.
func asyncReadSynced(s *gmac.Context) {
	p, _ := s.Alloc(64)
	s.Call("k", nil, gmac.Writes(p), gmac.Async())
	s.Sync()
	checksum(s, p)
}

func checksum(s *gmac.Context, p gmac.Ptr) byte {
	b, _ := s.HostRead(p, 64)
	var x byte
	for _, c := range b {
		x ^= c
	}
	return x
}

// reassigned aliases the pointer before the write: tracking stops and
// nothing is reported (the analyzer is deliberately first-order).
func reassigned(s *gmac.Context, src []byte) gmac.Ptr {
	p, _ := s.Alloc(64, gmac.Mode(gmac.ReadOnly))
	q := p
	s.HostWrite(q, src)
	return q
}

// readFileReadOnly reads a file into a ReadOnly object: ReadFile is a host
// write of its destination.
func readFileReadOnly(s *gmac.Context, f *gmac.File) {
	p, _ := s.Alloc(64, gmac.Mode(gmac.ReadOnly))
	s.ReadFile(f, p, 64) // want `ReadFile writes p, which is allocated gmac\.ReadOnly at basic\.go:\d+; writes to ReadOnly objects fail with ErrModeViolation`
}
