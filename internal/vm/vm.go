// Package vm is the software analogue of the virtual-memory hardware the
// paper's systems program through mprotect/SIGSEGV: a per-processor page
// table with access protections and a fault hook. Go's runtime owns the real
// signal machinery (see DESIGN.md substitutions), so every DSM access
// consults this table instead; the protocol-visible behaviour — which
// accesses fault and what the handler does — is preserved.
package vm

import (
	"fmt"

	"ecvslrc/internal/mem"
)

// Prot is a page protection level.
type Prot uint8

const (
	// NoAccess marks an invalid page: any access faults (used by the LRC
	// invalidate protocol).
	NoAccess Prot = iota
	// ReadOnly write-protects a page (used for copy-on-write twinning).
	ReadOnly
	// ReadWrite allows all access.
	ReadWrite
)

func (p Prot) String() string {
	switch p {
	case NoAccess:
		return "none"
	case ReadOnly:
		return "ro"
	case ReadWrite:
		return "rw"
	}
	return "?"
}

// FaultHandler resolves an access fault on addr (write reports the access
// type). On return the access must be permitted, or the MMU panics — a
// protocol bug, not an application condition.
type FaultHandler func(addr mem.Addr, write bool)

// MMU is one processor's page table.
type MMU struct {
	prot    []Prot
	handler FaultHandler
	faults  int64
}

// New returns an MMU covering pages pages, all initially ReadWrite.
func New(pages int) *MMU {
	m := &MMU{prot: make([]Prot, pages)}
	for i := range m.prot {
		m.prot[i] = ReadWrite
	}
	return m
}

// SetHandler installs the fault handler (the protocol's SIGSEGV handler).
func (m *MMU) SetHandler(h FaultHandler) { m.handler = h }

// Pages returns the number of pages covered.
func (m *MMU) Pages() int { return len(m.prot) }

// Table exposes the page-protection array itself, indexed by page number.
// The DSM access frontends cache it so the in-window fast path is one array
// load with no MMU pointer chase; SetProt mutates the same backing array, so
// a cached table stays coherent for the MMU's lifetime. Callers must treat
// it as read-only — protection changes go through SetProt.
func (m *MMU) Table() []Prot { return m.prot }

// Prot returns the protection of page pg.
func (m *MMU) Prot(pg int) Prot { return m.prot[pg] }

// SetProt changes the protection of page pg (the mprotect call; the caller
// charges its cost).
func (m *MMU) SetProt(pg int, p Prot) { m.prot[pg] = p }

// Faults returns the number of protection faults taken so far.
func (m *MMU) Faults() int64 { return m.faults }

// CheckRead validates a read access to addr, faulting if the page is
// invalid. The accessible case must stay small enough to inline: it runs on
// every shared load the applications issue.
func (m *MMU) CheckRead(addr mem.Addr) {
	if m.prot[int(addr)>>mem.PageShift] == NoAccess {
		m.check(addr, false)
	}
}

// CheckWrite validates a write access to addr, faulting if the page is
// invalid or write-protected. Inlines in the accessible case like CheckRead.
func (m *MMU) CheckWrite(addr mem.Addr) {
	if m.prot[int(addr)>>mem.PageShift] != ReadWrite {
		m.check(addr, true)
	}
}

// FaultRead and FaultWrite are the out-of-line slow paths behind the
// accessors' inlined protection checks: they re-validate the access against
// the current protection, then run the fault machinery. Callers invoke them
// only when the inlined fast-path check failed; single-argument forms keep
// the callers inside the inlining budget.

// FaultRead resolves a read access that failed the inlined check.
func (m *MMU) FaultRead(addr mem.Addr) { m.check(addr, false) }

// FaultWrite resolves a write access that failed the inlined check.
func (m *MMU) FaultWrite(addr mem.Addr) { m.check(addr, true) }

func (m *MMU) check(addr mem.Addr, write bool) {
	pg := mem.PageOf(addr)
	if m.allowed(pg, write) {
		return
	}
	if m.handler == nil {
		panic(fmt.Sprintf("vm: fault on page %d (%s access, prot %s) with no handler",
			pg, accessName(write), m.prot[pg]))
	}
	m.faults++
	m.handler(addr, write)
	if !m.allowed(pg, write) {
		panic(fmt.Sprintf("vm: fault handler left page %d inaccessible (%s access, prot %s)",
			pg, accessName(write), m.prot[pg]))
	}
}

func (m *MMU) allowed(pg int, write bool) bool {
	switch m.prot[pg] {
	case ReadWrite:
		return true
	case ReadOnly:
		return !write
	default:
		return false
	}
}

func accessName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}
