package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// yardArena is the yardstick's memory. It is mapped outside the Go heap,
// so the yardstick neither allocates nor adds to heap_mb, and the
// program's heap and GC do not change what it measures.
type yardArena struct {
	table []uint64 // open-addressing hash set, 1 MiB
	keys  []uint64 // sorted each round, 128 KiB
	ring  []uint32 // a single-cycle permutation chased for cache misses
	sink  uint64
}

const (
	yardTableBits = 17
	yardKeys      = 1 << 14
	yardRing      = 1 << 16
	yardRounds    = 8
)

func newYardArena() (*yardArena, error) {
	mem, err := syscall.Mmap(-1, 0, 8<<yardTableBits+8*yardKeys+4*yardRing,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("yardstick memory: %w", err)
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), len(mem)/8)
	a := &yardArena{
		table: words[:1<<yardTableBits],
		keys:  words[1<<yardTableBits : 1<<yardTableBits+yardKeys],
		ring:  unsafe.Slice((*uint32)(unsafe.Pointer(&words[1<<yardTableBits+yardKeys])), yardRing),
	}
	// Sattolo's shuffle: one cycle through every slot.
	for i := range a.ring {
		a.ring[i] = uint32(i)
	}
	x := uint64(1)
	for i := len(a.ring) - 1; i > 0; i-- {
		j := splitmix(&x) % uint64(i)
		a.ring[i], a.ring[j] = a.ring[j], a.ring[i]
	}
	return a, nil
}

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// work is a fixed piece of host-style work: hash-set inserts, a sort and
// a pointer chase over the arena.
func (a *yardArena) work() {
	x := uint64(0x5eed)
	mask := uint64(len(a.table) - 1)
	for range yardRounds {
		clear(a.table)
		for range 1 << (yardTableBits - 2) {
			k := splitmix(&x) | 1
			for i := k & mask; ; i = (i + 1) & mask {
				if a.table[i] == 0 || a.table[i] == k {
					a.table[i] = k
					break
				}
			}
		}
		for i := range a.keys {
			a.keys[i] = splitmix(&x)
		}
		slices.Sort(a.keys)
		p := uint32(0)
		for range yardRing {
			p = a.ring[p]
		}
		a.sink += a.keys[len(a.keys)/2] + uint64(p)
	}
}

// yardRef is the yardstick's CPU time on the reference machine the
// end-to-end times are scaled to. It is a round figure: on the 2-vCPU
// Intel Xeon VM the benchmark was defined on, the median was 17.6 ms.
const yardRef = 20 * time.Millisecond

// yardstick returns the CPU time a fixed piece of work takes on one locked
// OS thread. The work shares no code with the program, so it measures how
// fast the machine runs at that moment and nothing of the program; CPU
// time leaves out time the host takes the CPU away for, as the campaigns'
// CPU time does. The first call maps its memory.
func yardstick() (time.Duration, error) {
	if yard == nil {
		a, err := newYardArena()
		if err != nil {
			return 0, err
		}
		yard = a
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	yard.work()
	return threadCPU() - t0, nil
}

var yard *yardArena

// threadCPU is the CPU time of the calling OS thread, user and system.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
