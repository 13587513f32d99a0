package main

import (
	"math/rand"
	"runtime"
	"time"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/corpus"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/feedback"
	"droidfuzz/internal/gen"
	"droidfuzz/internal/relation"
)

// probeState is a traced campaign's end state: the executor (unwrapped),
// relation graph, corpus and coverage accumulator of one engine.
type probeState struct {
	x      adb.Executor
	graph  *relation.Graph
	corpus *corpus.Corpus
	acc    *feedback.Accumulator
}

// probeCalls is how many timed calls each probe makes.
const probeCalls = 2000

// probeSalt keeps the probes' RNG stream apart from every engine stream.
const probeSalt = 0x2545f4914f6cdd1d

// runProbes times calls to the public functions of gen, corpus, relation,
// feedback and dsl on the end state, recording them as spans in log. The
// campaign is over and its outputs recorded, so the probes perturb nothing
// that is measured; they draw from their own RNG. It returns the bytes one
// dsl.ParseProg call allocates.
func runProbes(st probeState, seed int64, log *spanLog) (parseAllocBytes float64) {
	rng := rand.New(rand.NewSource(seed ^ probeSalt))
	target := st.x.Target()
	g := gen.New(target, st.graph, rng, gen.Options{})
	timed := func(name string, f func()) {
		t0 := time.Now()
		f()
		log.add(name, time.Since(t0))
	}

	var progs []*dsl.Prog
	for _, e := range st.corpus.Entries() {
		progs = append(progs, e.Prog)
	}
	pick := func() *dsl.Prog { return progs[rng.Intn(len(progs))] }

	for range probeCalls {
		timed("gen.generate_us", func() { g.Generate() })
		seed, donor := pick(), pick()
		timed("gen.mutate_us", func() { g.Mutate(seed, donor) })
		timed("corpus.pick_us", func() { st.corpus.Pick(rng) })
	}

	texts := make([]string, 0, probeCalls)
	for range probeCalls {
		p := pick()
		timed("dsl.format_us", func() { texts = append(texts, p.String()) })
	}
	for _, text := range texts {
		timed("dsl.parse_us", func() { _, _ = dsl.ParseProg(target, text) })
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, text := range texts {
		_, _ = dsl.ParseProg(target, text)
	}
	runtime.ReadMemStats(&m1)
	parseAllocBytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(texts))

	// Re-execute corpus programs (untimed) and time folding their feedback
	// into the campaign's accumulator: FromExec plus MergeNew, the engine's
	// per-execution merge.
	spec := feedback.NewSpecTable(target)
	for range probeCalls / 4 {
		res, err := st.x.ExecProg(pick())
		if err != nil {
			continue
		}
		timed("feedback.merge_us", func() {
			sig := feedback.FromExec(res, spec)
			st.acc.MergeNew(sig).Release()
			sig.Release()
		})
		dirty := res.NeedsReboot() || res.Crashed()
		res.Release()
		if dirty {
			_, _ = st.x.Reset()
		}
	}

	// Learn the adjacent pairs of corpus programs, as admission does; a
	// Snapshot right after a Learn rebuilds the view, a second one hits it.
	for range probeCalls {
		p := pick()
		if p.Len() < 2 {
			continue
		}
		i := 1 + rng.Intn(p.Len()-1)
		a, b := p.Calls[i-1].Desc.Name, p.Calls[i].Desc.Name
		if a == b {
			continue // Learn ignores self-edges and would not invalidate the view
		}
		timed("relation.learn_us", func() { st.graph.Learn(a, b) })
		timed("relation.snapshot_rebuild_us", func() { st.graph.Snapshot() })
		timed("relation.snapshot_hit_us", func() { st.graph.Snapshot() })
	}
	return parseAllocBytes
}
