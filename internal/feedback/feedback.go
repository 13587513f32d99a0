// Package feedback implements DroidFuzz's cross-boundary execution state
// feedback (paper §IV-D). Kernel coverage comes from kcov directly. The
// closed-source HAL's execution behavior is reflected through *directional*
// system-call invocation coverage: HAL-origin syscalls are mapped through a
// specialized-ID lookup table (splitting generic calls like ioctl by their
// critical argument), and ordered n-grams of those IDs are hashed into
// signal elements appended to the kernel coverage. Both halves then flow
// through identical new-signal analysis.
//
// The package is built for an allocation-free steady state: Signal values
// are pooled flat slices rather than per-execution maps, the specialized-ID
// table is keyed by packed integers (no string formatting per trace event),
// and the Accumulator maintains its kernel/total counts incrementally so
// stats and snapshots never rescan the accumulated set.
package feedback

import (
	"fmt"
	"slices"
	"sync"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/kcov"
)

// FNV-1a 64-bit parameters, used both for n-gram hashing and for packing
// observed syscall events into SpecTable keys.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// SpecTable is the specialized system-call ID lookup table compiled at
// initialization from the target's descriptions: each (syscall, critical
// argument) pair — e.g. (ioctl, TCPC_SET_MODE) — gets a unique ID, and
// generic syscalls without a critical argument get one ID per (syscall,
// device path) pair.
//
// Lookups are read-mostly: the common case (an already-assigned event) takes
// a shared lock and a single integer-keyed map read with no allocation.
type SpecTable struct {
	mu     sync.RWMutex
	ids    map[uint64]uint32
	nextID uint32
}

// NewSpecTable builds the table from all ioctl request constants found in
// the target's syscall descriptions, pre-assigning stable IDs.
func NewSpecTable(target *dsl.Target) *SpecTable {
	t := &SpecTable{ids: make(map[uint64]uint32), nextID: 1}
	// Pre-populate with the specialized ioctls from the descriptions so IDs
	// are stable across runs regardless of observation order. The sort runs
	// over the historical string form of the keys: assignment order — and
	// therefore every ID, directional hash, and replayed campaign — stays
	// bit-identical to earlier table versions.
	type initKey struct {
		name string
		arg  uint64
	}
	keys := make([]initKey, 0)
	for _, d := range target.SyscallCalls() {
		if d.Syscall != "ioctl" || d.CriticalArg < 0 {
			continue
		}
		req := d.Args[d.CriticalArg].Type.Val
		keys = append(keys, initKey{fmt.Sprintf("ioctl$%#x", req), req})
	}
	slices.SortFunc(keys, func(a, b initKey) int {
		if a.name < b.name {
			return -1
		}
		if a.name > b.name {
			return 1
		}
		return 0
	})
	for _, k := range keys {
		pk := packEvent("ioctl", "", k.arg)
		if _, ok := t.ids[pk]; !ok {
			t.ids[pk] = t.nextID
			t.nextID++
		}
	}
	return t
}

// packEvent folds one observed syscall event into the table's integer key
// space: ioctls are keyed by their critical argument, generic syscalls by
// (name, device path). FNV-1a over the raw bytes keeps the packing
// allocation-free; a 64-bit collision between distinct events is treated as
// negligible at the scale of a device's syscall surface.
func packEvent(nr, path string, arg uint64) uint64 {
	if nr == "ioctl" {
		h := uint64(fnvOffset64)
		h = (h ^ 0xf1) * fnvPrime64 // ioctl namespace tag
		for i := 0; i < 64; i += 8 {
			h = (h ^ (arg >> i & 0xff)) * fnvPrime64
		}
		return h
	}
	h := uint64(fnvOffset64)
	for i := 0; i < len(nr); i++ {
		h = (h ^ uint64(nr[i])) * fnvPrime64
	}
	h = (h ^ 0x24) * fnvPrime64 // separator: "read"+"x" ≠ "readx"+""
	for i := 0; i < len(path); i++ {
		h = (h ^ uint64(path[i])) * fnvPrime64
	}
	return h
}

// ID returns the specialized ID for one observed syscall event, assigning a
// fresh ID for combinations not seen before (runtime-discovered requests).
func (t *SpecTable) ID(ev adb.TraceEvent) uint32 {
	key := packEvent(ev.NR, ev.Path, ev.Arg)
	t.mu.RLock()
	id, ok := t.ids[key]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[key]; ok {
		return id
	}
	id = t.nextID
	t.nextID++
	t.ids[key] = id
	return id
}

// Size reports the number of assigned specialized IDs.
func (t *SpecTable) Size() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.ids)
}

// Sequence maps an ordered HAL trace to its specialized-ID sequence.
func (t *SpecTable) Sequence(trace []adb.TraceEvent) []uint32 {
	return t.appendSequence(make([]uint32, 0, len(trace)), trace)
}

// appendSequence appends the trace's specialized IDs to dst, reusing its
// capacity (the pooled-signal hot path).
func (t *SpecTable) appendSequence(dst []uint32, trace []adb.TraceEvent) []uint32 {
	for _, ev := range trace {
		dst = append(dst, t.ID(ev))
	}
	return dst
}

// Signal is a set of 64-bit signal elements: kernel PCs live in the low
// 32-bit space; directional HAL hashes are offset into a disjoint namespace
// so the two coverage kinds merge without collisions.
//
// It is backed by a sorted, deduplicated flat slice and recycled through a
// pool: obtain one from FromExec, NewSignal, or SignalOf, and hand it back
// with Release once no longer referenced. Releasing is optional — an
// unreleased Signal is simply collected by the GC — but the fuzzing hot
// path releases everything and runs allocation-free in steady state.
type Signal struct {
	elems  []uint64 // sorted ascending, unique once sealed
	kernel int      // count of elements below halNamespace
	seq    []uint32 // scratch: specialized-ID sequence of the HAL trace
	san    sanState // zero-sized unless built with -tags droidfuzz_sanitize
}

var signalPool = sync.Pool{New: func() any { return new(Signal) }}

// getSignal is the one pool exit: every constructor draws through here so
// the sanitizer sees each acquisition. The pooled signal is owned by the
// caller, who must Release it.
func getSignal() *Signal {
	s := signalPool.Get().(*Signal)
	s.san.acquire()
	s.elems = s.elems[:0]
	s.kernel = 0
	return s
}

// NewSignal returns an empty pooled signal.
func NewSignal() *Signal {
	return getSignal()
}

// SignalOf builds a pooled signal from explicit elements (tests, tools).
func SignalOf(elems ...uint64) *Signal {
	s := NewSignal()
	s.elems = append(s.elems, elems...)
	s.seal()
	return s
}

// Release returns the signal to the pool. The caller must not use it
// afterwards.
func (s *Signal) Release() {
	if s == nil {
		return
	}
	s.san.release("feedback.Signal", sanCaller())
	signalPool.Put(s)
}

// seal sorts and deduplicates the element slice and computes the
// kernel/directional boundary. Elements are unordered sets semantically;
// the sorted representation makes membership and subset checks cheap.
func (s *Signal) seal() {
	s.san.alive("feedback.Signal.seal")
	slices.Sort(s.elems)
	s.elems = slices.Compact(s.elems)
	s.kernel, _ = slices.BinarySearch(s.elems, halNamespace)
}

// Len reports the number of signal elements.
func (s *Signal) Len() int {
	s.san.alive("feedback.Signal.Len")
	return len(s.elems)
}

// KernelLen reports how many elements are kernel PCs (vs directional).
func (s *Signal) KernelLen() int {
	s.san.alive("feedback.Signal.KernelLen")
	return s.kernel
}

// Elems exposes the sorted elements; the slice is owned by the signal and
// must not be retained past Release.
func (s *Signal) Elems() []uint64 {
	s.san.alive("feedback.Signal.Elems")
	return s.elems
}

// Contains reports whether e is in the signal.
func (s *Signal) Contains(e uint64) bool {
	s.san.alive("feedback.Signal.Contains")
	_, ok := slices.BinarySearch(s.elems, e)
	return ok
}

// ContainsAll reports whether every element of want is in s (both sorted:
// one merge walk, no allocation).
func (s *Signal) ContainsAll(want *Signal) bool {
	s.san.alive("feedback.Signal.ContainsAll")
	want.san.alive("feedback.Signal.ContainsAll(want)")
	i := 0
	for _, w := range want.elems {
		for i < len(s.elems) && s.elems[i] < w {
			i++
		}
		if i >= len(s.elems) || s.elems[i] != w {
			return false
		}
	}
	return true
}

// halNamespace offsets directional-coverage hashes away from kernel PCs.
const halNamespace = uint64(1) << 32

// ngramOrders are the n-gram sizes hashed from the specialized-ID sequence;
// 1-grams capture which specialized calls ran, 2-grams capture pairwise
// order — the property plain kernel coverage "disregards" (paper §IV-D).
// Longer windows add little beyond noise: every fresh interleaving mints
// new hashes, flooding the corpus without improving guidance.
var ngramOrders = []int{1, 2}

// FromExec builds the joint signal for one execution result: kernel PCs
// plus directional n-gram hashes of the HAL syscall sequence. A nil table
// yields kernel-only signal (the DF-NoHCov ablation). The returned signal
// is pooled; Release it when done.
func FromExec(res *adb.ExecResult, table *SpecTable) *Signal {
	s := getSignal()
	for _, pc := range res.KernelCov {
		s.elems = append(s.elems, uint64(pc))
	}
	if table != nil {
		s.seq = table.appendSequence(s.seq[:0], res.HALTrace)
		for _, n := range ngramOrders {
			s.addNgrams(s.seq, n)
		}
	}
	s.seal()
	return s
}

// addNgrams hashes every n-length window of seq into the signal.
func (s *Signal) addNgrams(seq []uint32, n int) {
	if n <= 0 || len(seq) < n {
		return
	}
	for i := 0; i+n <= len(seq); i++ {
		s.elems = append(s.elems, ngramElem(seq, i, n))
	}
}

// ngramElem hashes the n-length window of seq at i into its signal element.
// Both the pooled Signal path and the streaming observe path derive n-gram
// elements through this one function, so they cannot drift apart.
func ngramElem(seq []uint32, i, n int) uint64 {
	var h uint64 = fnvOffset64
	h ^= uint64(n)
	h *= fnvPrime64
	for _, id := range seq[i : i+n] {
		h ^= uint64(id)
		h *= fnvPrime64
	}
	return halNamespace | (h>>32<<16 | h&0xffff)
}

// Accumulator tracks the maximal signal observed across a campaign and
// answers whether an execution contributed new state. Kernel and total
// counts are maintained incrementally on merge, so Total, KernelTotal,
// Stats reads, and Snapshot are O(1) instead of rescanning the set.
//
// The accumulated state is split by namespace. Kernel PCs — every signal
// element below halNamespace fits in 32 bits — live in a dense atomic
// kcov.Bitmap, so the kernel half of a merge is lock-free: engines sharing
// an accumulator at fleet scale fold coverage concurrently with one atomic
// OR per PC. Directional n-gram elements (≥ halNamespace, up to ~2^48)
// stay in a map guarded by the mutex, which also covers history. A signal's
// sorted element slice makes the split free: elems[:kernel] is the kernel
// prefix, elems[kernel:] the directional tail.
type Accumulator struct {
	kernel *kcov.Bitmap // elements < halNamespace, lock-free
	san    accSan
	mu     sync.Mutex
	dir    map[uint64]struct{} // elements ≥ halNamespace
	// history records (virtual time, kernel coverage count) snapshots.
	history []Point
}

// Point is one coverage-over-time sample.
type Point struct {
	VTime  uint64 // executions so far
	Kernel int    // distinct kernel PCs
	Total  int    // total signal elements
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{kernel: kcov.NewBitmap(), dir: make(map[uint64]struct{})}
}

// Merge folds a signal into the accumulated maximum, returning the number
// of new elements it contributed. The kernel prefix merges lock-free.
func (a *Accumulator) Merge(s *Signal) int {
	added := 0
	for _, e := range s.elems[:s.kernel] {
		if a.kernel.Add(uint32(e)) {
			added++
		}
	}
	a.san.observeKernelElems(s.elems[:s.kernel])
	if rest := s.elems[s.kernel:]; len(rest) > 0 {
		a.mu.Lock()
		for _, e := range rest {
			if _, ok := a.dir[e]; !ok {
				a.dir[e] = struct{}{}
				added++
			}
		}
		a.mu.Unlock()
	}
	a.san.verify(a.kernel)
	return added
}

// MergeNew folds a signal into the accumulated maximum and returns the
// subset that was new — the fused form of NewOf followed by Merge that the
// engine's per-execution hot path uses. The returned signal is pooled;
// Release it when done.
func (a *Accumulator) MergeNew(s *Signal) *Signal {
	s.san.alive("feedback.Accumulator.MergeNew(s)")
	d := getSignal()
	for _, e := range s.elems[:s.kernel] {
		if a.kernel.Add(uint32(e)) {
			d.elems = append(d.elems, e)
		}
	}
	a.san.observeKernelElems(s.elems[:s.kernel])
	// s is sorted and unique, so the kernel prefix of the filtered subset
	// is complete here: its length is d's namespace split.
	d.kernel = len(d.elems)
	if rest := s.elems[s.kernel:]; len(rest) > 0 {
		a.mu.Lock()
		for _, e := range rest {
			if _, ok := a.dir[e]; !ok {
				a.dir[e] = struct{}{}
				d.elems = append(d.elems, e)
			}
		}
		a.mu.Unlock()
	}
	a.san.verify(a.kernel)
	return d
}

// observeExec folds one execution's signal elements — its kernel PCs and
// the n-gram hashes of its specialized-ID sequence seq — straight into the
// accumulated maximum, reporting whether anything was new. It derives the
// exact element set FromExec would (PCs plus ngramElem windows) but skips
// the Signal representation entirely: no sort, no dedup, no pooled set —
// the bitmap and map merges dedup for free. This is the uplink filter's
// hot path, where per-execution novelty is the only question asked.
func (a *Accumulator) observeExec(pcs []uint32, seq []uint32) bool {
	novel := false
	for _, pc := range pcs {
		if a.kernel.Add(pc) {
			novel = true
		}
	}
	a.san.observeKernelPCs(pcs)
	a.mu.Lock()
	for _, n := range ngramOrders {
		for i := 0; i+n <= len(seq); i++ {
			e := ngramElem(seq, i, n)
			if _, ok := a.dir[e]; !ok {
				a.dir[e] = struct{}{}
				novel = true
			}
		}
	}
	a.mu.Unlock()
	a.san.verify(a.kernel)
	return novel
}

// HasNew reports whether s contains elements outside the accumulated
// maximum, without merging.
func (a *Accumulator) HasNew(s *Signal) bool {
	for _, e := range s.elems[:s.kernel] {
		if !a.kernel.Has(uint32(e)) {
			return true
		}
	}
	rest := s.elems[s.kernel:]
	if len(rest) == 0 {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range rest {
		if _, ok := a.dir[e]; !ok {
			return true
		}
	}
	return false
}

// NewOf returns the subset of s not yet accumulated, without merging. The
// returned signal is pooled; Release it when done.
func (a *Accumulator) NewOf(s *Signal) *Signal {
	s.san.alive("feedback.Accumulator.NewOf(s)")
	d := getSignal()
	for _, e := range s.elems[:s.kernel] {
		if !a.kernel.Has(uint32(e)) {
			d.elems = append(d.elems, e)
		}
	}
	d.kernel = len(d.elems)
	if rest := s.elems[s.kernel:]; len(rest) > 0 {
		a.mu.Lock()
		for _, e := range rest {
			if _, ok := a.dir[e]; !ok {
				d.elems = append(d.elems, e)
			}
		}
		a.mu.Unlock()
	}
	return d
}

// Total reports the accumulated signal size.
func (a *Accumulator) Total() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.kernel.Count() + len(a.dir)
}

// KernelTotal reports the accumulated count of distinct kernel PCs.
func (a *Accumulator) KernelTotal() int {
	return a.kernel.Count()
}

// KernelPCs returns the accumulated kernel PCs (for per-driver accounting),
// in ascending order straight off the bitmap scan.
func (a *Accumulator) KernelPCs() []uint32 {
	return a.kernel.Sorted()
}

// Snapshot appends a coverage-over-time sample at the given virtual time.
// With incremental counters this is O(1), so frequent sampling (the
// engine's every-25-executions cadence) costs nothing.
func (a *Accumulator) Snapshot(vtime uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.history = append(a.history, Point{VTime: vtime, Kernel: a.kernel.Count(), Total: a.kernel.Count() + len(a.dir)})
}

// History returns the recorded coverage-over-time samples.
func (a *Accumulator) History() []Point {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Point, len(a.history))
	copy(out, a.history)
	return out
}
