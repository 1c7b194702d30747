// Package core defines the public surface shared by every DSM implementation
// in this repository: the consistency model / write trapping / write
// collection configuration matrix (Table 1 of the paper), the DSM programming
// interface used by the applications, and the run statistics the paper
// reports (execution time, messages, data moved).
package core

import (
	"fmt"
	"strings"

	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
)

// Model selects the consistency model.
type Model int

const (
	// EC is entry consistency (Midway): shared data is bound to locks, an
	// update protocol propagates only the bound data at acquires.
	EC Model = iota
	// LRC is lazy release consistency (TreadMarks): all shared data is made
	// consistent at acquires via write notices and an invalidate protocol.
	LRC
)

func (m Model) String() string {
	if m == EC {
		return "EC"
	}
	return "LRC"
}

// Trap selects the write-trapping mechanism (Section 4).
type Trap int

const (
	// CompilerInstr uses compiler-emitted software dirty bits.
	CompilerInstr Trap = iota
	// Twinning compares data against saved copies.
	Twinning
)

func (t Trap) String() string {
	if t == CompilerInstr {
		return "ci"
	}
	return "twin"
}

// Collect selects the write-collection mechanism (Section 5).
type Collect int

const (
	// Timestamps tags each block with a logical time and scans on request.
	Timestamps Collect = iota
	// Diffs builds run-length-encoded change records once and forwards them.
	Diffs
)

func (c Collect) String() string {
	if c == Timestamps {
		return "time"
	}
	return "diff"
}

// Impl is one cell of the paper's implementation matrix.
type Impl struct {
	Model   Model
	Trap    Trap
	Collect Collect
}

// Valid reports whether the combination is one the paper explores. Compiler
// instrumentation with diffing is excluded: it would pay the memory overhead
// of both the software dirty bits and the diffs (Section 5.3).
func (i Impl) Valid() bool {
	return !(i.Trap == CompilerInstr && i.Collect == Diffs)
}

// String renders the paper's implementation names: EC-ci, EC-time, EC-diff,
// LRC-ci, LRC-time, LRC-diff. "ci" implies timestamps; "time" and "diff" use
// twinning.
func (i Impl) String() string {
	switch {
	case i.Trap == CompilerInstr:
		return i.Model.String() + "-ci"
	case i.Collect == Timestamps:
		return i.Model.String() + "-time"
	default:
		return i.Model.String() + "-diff"
	}
}

// ParseImpl converts a paper-style implementation name back to an Impl. The
// error names every valid spelling, so CLIs can print it verbatim.
func ParseImpl(s string) (Impl, error) {
	for _, i := range Implementations() {
		if i.String() == s {
			return i, nil
		}
	}
	return Impl{}, fmt.Errorf("core: unknown implementation %q (valid: %s)", s, strings.Join(ImplNames(), ", "))
}

// ImplNames lists the implementation names of Table 1 in Implementations
// order: EC-ci, EC-time, EC-diff, LRC-ci, LRC-time, LRC-diff.
func ImplNames() []string {
	var out []string
	for _, i := range Implementations() {
		out = append(out, i.String())
	}
	return out
}

// Implementations lists the six combinations explored in the paper, EC first.
func Implementations() []Impl {
	return []Impl{
		{EC, CompilerInstr, Timestamps},
		{EC, Twinning, Timestamps},
		{EC, Twinning, Diffs},
		{LRC, CompilerInstr, Timestamps},
		{LRC, Twinning, Timestamps},
		{LRC, Twinning, Diffs},
	}
}

// ModelImpls lists the implementations of one model.
func ModelImpls(m Model) []Impl {
	var out []Impl
	for _, i := range Implementations() {
		if i.Model == m {
			out = append(out, i)
		}
	}
	return out
}

// LockID names a lock. Locks are created on first use; managers are assigned
// round-robin by ID (Section 6).
type LockID int

// BarrierID names a barrier; managers are assigned round-robin by ID.
type BarrierID int

// DSM is the programming interface the applications run against. One DSM
// value exists per simulated processor. All shared-memory access goes through
// the typed accessors so the implementation can trap writes and detect access
// misses; Compute charges application CPU time to the simulated clock.
type DSM interface {
	// Proc returns this processor's id, 0-based.
	Proc() int
	// NProcs returns the number of processors in the run.
	NProcs() int
	// Model identifies the consistency model, letting one application
	// source express both programming styles (Section 3.3).
	Model() Model

	// ReadI32 loads a 32-bit integer from shared memory.
	ReadI32(a mem.Addr) int32
	// WriteI32 stores a 32-bit integer to shared memory.
	WriteI32(a mem.Addr, v int32)
	// ReadF32 loads a 32-bit float from shared memory.
	ReadF32(a mem.Addr) float32
	// WriteF32 stores a 32-bit float to shared memory.
	WriteF32(a mem.Addr, v float32)
	// ReadF64 loads a 64-bit float from shared memory.
	ReadF64(a mem.Addr) float64
	// WriteF64 stores a 64-bit float to shared memory.
	WriteF64(a mem.Addr, v float64)

	// Acquire obtains lock l in exclusive mode, performing the model's
	// consistency actions.
	Acquire(l LockID)
	// AcquireRead obtains lock l in read-only mode (EC programs use this
	// for data read but not written; LRC treats it as Acquire).
	AcquireRead(l LockID)
	// Release releases lock l.
	Release(l LockID)
	// Barrier blocks until all processors arrive at barrier b.
	Barrier(b BarrierID)

	// Bind associates shared ranges with lock l (EC only; no-op for LRC).
	// Every processor must issue identical initial bindings (EC panics on a
	// mismatch, naming the lock and both range lists). Bind does not
	// retain rs: the implementation copies what it needs, so a caller
	// binding many locks may pass one reused slice and change it afterwards.
	Bind(l LockID, rs ...mem.Range)
	// Rebind changes the data bound to l (EC only). Must be called while
	// holding l exclusively; the next transfer conservatively sends all
	// bound data (Section 7.1, "Rebinding"). Like Bind, it does not retain
	// rs.
	Rebind(l LockID, rs ...mem.Range)
	// AcquireForRebind obtains l exclusively without applying the update-
	// protocol data: the caller is about to Rebind, so the old binding's
	// contents must not be installed (they may alias memory the acquirer
	// currently holds newer values for under other locks). Equivalent to
	// Acquire under LRC.
	AcquireForRebind(l LockID)

	// Compute charges d of application CPU time.
	Compute(d sim.Time)
	// Now returns the current simulated time.
	Now() sim.Time

	// StatsBegin starts this processor's measurement window (typically
	// right after initialization barriers).
	StatsBegin()
	// StatsEnd closes the window (typically right after the final barrier,
	// before result verification).
	StatsEnd()
}

// Accessor is a type-parameter constraint with exactly DSM's method set. No
// application uses it: every program takes a plain DSM. It is kept only for
// the generic accessLoop of the benchmark's access probes, and goes when
// those probes are re-pointed at DSM.
type Accessor interface {
	DSM
}

// Stats aggregates one run's measurements in the units the paper reports.
type Stats struct {
	// Time is the parallel execution time: the latest StatsEnd minus the
	// earliest StatsBegin over all processors.
	Time sim.Time
	// Msgs counts messages sent inside the window.
	Msgs int64
	// Bytes counts bytes sent (with headers) inside the window.
	Bytes int64
	// Faults counts protection faults (SIGSEGV) taken.
	Faults int64
	// AccessMisses counts LRC page access misses.
	AccessMisses int64
	// LockAcquires counts exclusive lock acquisitions.
	LockAcquires int64
	// ReadLockAcquires counts read-only lock acquisitions.
	ReadLockAcquires int64
	// RemoteAcquires counts acquisitions that required messages.
	RemoteAcquires int64
	// Barriers counts barrier episodes completed.
	Barriers int64
	// DiffsCreated counts diffs built.
	DiffsCreated int64
	// TwinsMade counts page twins created.
	TwinsMade int64
	// StampRunsSent counts timestamp runs transmitted.
	StampRunsSent int64
}

// MB reports the data volume in megabytes (10^6 bytes, as the paper quotes).
func (s Stats) MB() float64 { return float64(s.Bytes) / 1e6 }

// String summarizes the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("time=%v msgs=%d data=%.2fMB faults=%d misses=%d locks=%d(+%dro) barriers=%d",
		s.Time, s.Msgs, s.MB(), s.Faults, s.AccessMisses, s.LockAcquires, s.ReadLockAcquires, s.Barriers)
}
