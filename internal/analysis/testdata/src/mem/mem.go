// Package mem is a minimal stand-in for repro/internal/mem: gmac.Ptr is an
// alias of its Addr, as in the real API.
package mem

// Addr is a host virtual address.
type Addr uintptr
