package feedback

import (
	"fmt"
	"sort"
	"testing"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/device"
	"droidfuzz/internal/dsl"
)

// This file keeps the pre-pooling feedback algorithm as an independent
// oracle for FromExec: a map-backed signal rebuilt from scratch for every
// execution, with specialized IDs looked up through fmt.Sprintf-formatted
// string keys. It shares no code with the pooled path apart from the
// n-gram orders, so agreement on randomized results pins FromExec's
// element set.

// legacySignal is the old per-execution map representation.
type legacySignal map[uint64]struct{}

const legacyHALNamespace = uint64(1) << 32

// legacySpecTable is the old string-keyed specialization table.
type legacySpecTable struct {
	ids    map[string]uint32
	nextID uint32
}

func legacySpecKey(nr, path string, arg uint64) string {
	if nr == "ioctl" {
		return fmt.Sprintf("ioctl$%#x", arg)
	}
	return nr + "$" + path
}

func newLegacySpecTable(target *dsl.Target) *legacySpecTable {
	t := &legacySpecTable{ids: make(map[string]uint32), nextID: 1}
	names := make([]string, 0)
	for _, d := range target.SyscallCalls() {
		if d.Syscall != "ioctl" || d.CriticalArg < 0 {
			continue
		}
		req := d.Args[d.CriticalArg].Type.Val
		names = append(names, legacySpecKey("ioctl", "", req))
	}
	sort.Strings(names) // same pre-assignment order as the real table
	for _, k := range names {
		if _, ok := t.ids[k]; !ok {
			t.ids[k] = t.nextID
			t.nextID++
		}
	}
	return t
}

func (t *legacySpecTable) id(ev adb.TraceEvent) uint32 {
	key := legacySpecKey(ev.NR, ev.Path, ev.Arg)
	if id, ok := t.ids[key]; ok {
		return id
	}
	id := t.nextID
	t.nextID++
	t.ids[key] = id
	return id
}

// legacyFromExec rebuilds the signal map and ID sequence from scratch for
// every execution.
func legacyFromExec(res *adb.ExecResult, table *legacySpecTable) legacySignal {
	s := make(legacySignal, len(res.KernelCov))
	for _, pc := range res.KernelCov {
		s[uint64(pc)] = struct{}{}
	}
	seq := make([]uint32, len(res.HALTrace))
	for i, ev := range res.HALTrace {
		seq[i] = table.id(ev)
	}
	for _, n := range ngramOrders {
		legacyAddNgrams(s, seq, n)
	}
	return s
}

func legacyAddNgrams(s legacySignal, seq []uint32, n int) {
	if n <= 0 || len(seq) < n {
		return
	}
	for i := 0; i+n <= len(seq); i++ {
		var h uint64 = 14695981039346656037
		h ^= uint64(n)
		h *= 1099511628211
		for _, id := range seq[i : i+n] {
			h ^= uint64(id)
			h *= 1099511628211
		}
		s[legacyHALNamespace|(h>>32<<16|h&0xffff)] = struct{}{}
	}
}

// splitmix64 is the deterministic generator for the synthetic workload.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// workload is a fixed set of synthetic execution results shaped like the
// simulator's real output: a few hundred kernel PCs with heavy repetition
// (loops revisit the same driver blocks) and a few dozen HAL-origin trace
// events drawn from a small ioctl vocabulary.
type workload struct {
	results []*adb.ExecResult
}

const (
	workloadVariants = 8
	pcsPerExec       = 220
	distinctPCs      = 96
	eventsPerExec    = 28
	distinctIoctls   = 24
)

func newWorkload(seed uint64) *workload {
	rng := splitmix64(seed)
	w := &workload{}
	for v := 0; v < workloadVariants; v++ {
		res := &adb.ExecResult{}
		for i := 0; i < pcsPerExec; i++ {
			// PCs cluster in a small distinct set, like kcov traces do.
			res.KernelCov = append(res.KernelCov,
				0xc0de0000+uint32(rng.next()%distinctPCs)*0x40)
		}
		for i := 0; i < eventsPerExec; i++ {
			var ev adb.TraceEvent
			switch rng.next() % 8 {
			case 0:
				ev = adb.TraceEvent{NR: "read", Path: "/dev/wlan0"}
			case 1:
				ev = adb.TraceEvent{NR: "write", Path: "/dev/gpu0"}
			default:
				ev = adb.TraceEvent{NR: "ioctl", Path: "/dev/gpu0",
					Arg: 0xa000 + rng.next()%distinctIoctls}
			}
			res.HALTrace = append(res.HALTrace, ev)
		}
		w.results = append(w.results, res)
	}
	return w
}

// mustTarget builds the A1 syscall target.
func mustTarget() *dsl.Target {
	model, err := device.ModelByID("A1")
	if err != nil {
		panic(fmt.Sprintf("feedback: model A1: %v", err))
	}
	target, err := dsl.NewTarget(device.New(model).SyscallDescs()...)
	if err != nil {
		panic(fmt.Sprintf("feedback: target: %v", err))
	}
	return target
}

// TestLegacyAndPooledSignalsAgree pins FromExec to the rebuild-from-scratch
// reference: both paths must produce the same element set for the same
// execution result.
func TestLegacyAndPooledSignalsAgree(t *testing.T) {
	w := newWorkload(3)
	target := mustTarget()
	table := NewSpecTable(target)
	legacy := newLegacySpecTable(target)
	for _, res := range w.results {
		sig := FromExec(res, table)
		leg := legacyFromExec(res, legacy)
		if sig.Len() != len(leg) {
			t.Fatalf("element counts differ: pooled %d, legacy %d", sig.Len(), len(leg))
		}
		for _, e := range sig.Elems() {
			if _, ok := leg[e]; !ok {
				t.Fatalf("pooled element %#x missing from legacy signal", e)
			}
		}
		sig.Release()
	}
}
