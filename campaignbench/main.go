// Command campaignbench is droidfuzz's benchmark: whole fuzzing campaigns
// at a fixed (model, seed, iterations), reported as end-to-end throughput,
// coverage and bugs at budget, with a separate traced run that splits the
// campaign's wall time across the layers an execution crosses. See
// README.md for the workloads and metrics.
//
//	campaignbench --workload serial-a1 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result: a JSON object with the
// keys correct, attempted, failed and metrics. The line before it records
// the machine, the campaign seeds and the correctness gates.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed the campaign seeds derive from")
		seconds = flag.Int("seconds", 10, "how long to keep running campaigns")
		traced  = flag.Int("trace", 0, "1 reports the per-layer breakdown instead of the end-to-end metrics")
		commit  = flag.String("commit", "", "source revision recorded with the result")
	)
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "campaignbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	code := 0
	for _, n := range names {
		w, err := workloadByName(n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaignbench: %v\n", err)
			os.Exit(2)
		}
		res, info, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaignbench: %s: %v\n", w.name, err)
			os.Exit(2)
		}
		info.Machine = fingerprint(*commit)
		printJSON(info)
		printJSON(res)
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaignbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's contract line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is printed before the result: what ran, where, and which gates
// held.
type info struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Seeds     []int64     `json:"campaign_seeds"`
	Iters     int         `json:"iters_per_engine"`
	Campaigns int         `json:"campaigns"`
	Traced    bool        `json:"traced"`
	Machine   machineInfo `json:"machine"`
	// ExecErrorRatio is failed/attempted: ExecErrors (which include batch
	// entries the broker never acknowledged) over executions.
	ExecErrorRatio float64  `json:"exec_error_ratio"`
	Failures       []string `json:"gate_failures,omitempty"`
	// Samples are the untraced campaigns the medians were taken over.
	Samples []sample `json:"campaigns_untraced"`
}

// sample is one untraced campaign as measured: wall and CPU seconds are
// not scaled by the yardstick.
type sample struct {
	Seed      int64      `json:"seed"`
	SetupS    float64    `json:"setup_s"`
	SetupCPUS float64    `json:"setup_cpu_s"`
	WallS     float64    `json:"wall_s"`
	CPUS      float64    `json:"cpu_s"`
	YardS     [2]float64 `json:"yardstick_cpu_s"`
	ItersPerS float64    `json:"iters_per_s"`
	ExecsPerS float64    `json:"execs_per_s"`
	Kcov      int        `json:"kcov"`
	Signal    int        `json:"signal"`
	Bugs      []string   `json:"bugs"`
}

// campaign is one set-up-and-run of a workload.
type campaign struct {
	seed  int64
	setup time.Duration
	wall  time.Duration
	// setupCPU and cpu are the CPU time the process used during set-up and
	// during the run phase.
	setupCPU, cpu time.Duration
	// yard holds the yardstick's CPU times before set-up and after the run.
	yard [2]time.Duration
	out  outcome
	// Allocation and GC figures of the run phase.
	allocsPerIter, bytesPerIter float64
	gcFrac, gcPerKiter          float64
	heapMB                      float64
	tr                          *trace
	// probes holds the layer probes' spans (first traced campaign only).
	probes          *spanLog
	parseAllocBytes float64
}

func (c *campaign) itersPerS() float64    { return float64(c.out.iters) / c.wall.Seconds() }
func (c *campaign) execsPerS() float64    { return float64(c.out.execs) / c.wall.Seconds() }
func (c *campaign) itersPerCPUS() float64 { return float64(c.out.iters) / c.cpu.Seconds() }
func (c *campaign) execsPerCPUS() float64 { return float64(c.out.execs) / c.cpu.Seconds() }

// runCampaign sets up and runs one campaign. When traced, the executor and
// stream wrappers record spans, and withProbes also times the layer probes
// on the campaign's end state. A gate failure is returned in gate; err is
// for a campaign that could not run at all.
func runCampaign(w workload, seed int64, traced, withProbes bool) (c campaign, gate, err error) {
	c.seed = seed
	runtime.GC()
	if c.yard[0], err = yardstick(); err != nil {
		return c, nil, err
	}
	cpuSetup := cpuTime()
	t0 := time.Now()
	r, err := w.setup(seed, w.iters, traced)
	if err != nil {
		return c, nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	c.setup = time.Since(t0)
	c.setupCPU = cpuTime() - cpuSetup
	if traced {
		c.tr = newTrace()
	}
	var m0, m1 runtime.MemStats
	g0 := readGC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t1 := time.Now()
	if err := r.run(c.tr); err != nil {
		return c, nil, fmt.Errorf("run: %w", err)
	}
	c.wall = time.Since(t1)
	c.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	g1 := readGC()
	c.out, gate = r.result()
	c.setup += c.out.setupTail
	c.setupCPU += c.out.setupTailCPU
	iters := float64(c.out.iters)
	c.allocsPerIter = float64(m1.Mallocs-m0.Mallocs) / iters
	c.bytesPerIter = float64(m1.TotalAlloc-m0.TotalAlloc) / iters
	c.gcFrac = ratio(g1.gcCPU-g0.gcCPU, g1.totalCPU-g0.totalCPU)
	c.gcPerKiter = (g1.cycles - g0.cycles) * 1000 / iters
	runtime.GC()
	runtime.ReadMemStats(&m1)
	c.heapMB = float64(m1.HeapAlloc) / (1 << 20)
	if c.yard[1], err = yardstick(); err != nil {
		return c, nil, err
	}
	if c.out.execErrors > 0 && gate == nil {
		gate = fmt.Errorf("%d execution errors", c.out.execErrors)
	}
	if withProbes {
		c.probes = newSpanLog()
		c.parseAllocBytes = runProbes(r.endState(), seed, c.probes)
	}
	return c, gate, nil
}

// cpuTime is the CPU time the process has used, user and system. Time the
// host takes the machine's CPUs away for is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type gcSample struct{ gcCPU, totalCPU, cycles float64 }

var gcMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/gc/cycles/total:gc-cycles"}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetrics))
	for i, name := range gcMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return gcSample{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// runWorkload runs campaigns of w until the time is up, cycling through
// the seeds derived from seed, then folds them into the result. Traced, each
// round runs an untraced and a traced campaign of one seed.
func runWorkload(w workload, seed int64, d time.Duration, traced bool) (result, info, error) {
	inf := info{Workload: w.name, Seed: seed, Iters: w.iters, Traced: traced}
	for k := range w.seeds {
		inf.Seeds = append(inf.Seeds, seed*int64(w.seeds)+int64(k))
	}
	var (
		untraced, tracedRuns []campaign
		digests              = make(map[int64]string)
		attempted, failed    uint64
	)
	fail := func(format string, args ...any) { inf.Failures = append(inf.Failures, fmt.Sprintf(format, args...)) }
	// check applies the gates to one campaign and, on deterministic
	// workloads, the replay check against the seed's first campaign.
	check := func(c campaign, gate error, kind string) {
		attempted += c.out.execs
		failed += c.out.execErrors
		if gate != nil {
			fail("%s seed %d: %v", kind, c.seed, gate)
		}
		if !w.deterministic {
			return
		}
		if prev, ok := digests[c.seed]; !ok {
			digests[c.seed] = c.out.digest
		} else if prev != c.out.digest {
			fail("%s seed %d did not reproduce: %s != %s", kind, c.seed, c.out.digest, prev)
		}
	}
	deadline := time.Now().Add(d)
	// Untraced, every seed runs once and the first runs again, so a
	// deterministic workload's replay is checked in every run. Traced,
	// every round checks that the traced campaign replays the untraced one.
	minRounds := w.seeds + 1
	if traced {
		minRounds = 2
	}
	for i := 0; (i < minRounds || time.Now().Before(deadline)) && len(inf.Failures) == 0; i++ {
		s := inf.Seeds[i%w.seeds]
		c, gate, err := runCampaign(w, s, false, false)
		if err != nil {
			return result{}, inf, err
		}
		check(c, gate, "untraced")
		untraced = append(untraced, c)
		inf.Samples = append(inf.Samples, sample{
			Seed: s, SetupS: c.setup.Seconds(), SetupCPUS: c.setupCPU.Seconds(), WallS: c.wall.Seconds(), CPUS: c.cpu.Seconds(),
			YardS:     [2]float64{c.yard[0].Seconds(), c.yard[1].Seconds()},
			ItersPerS: c.itersPerS(), ExecsPerS: c.execsPerS(),
			Kcov: c.out.kcov, Signal: c.out.signal, Bugs: c.out.bugs,
		})
		if !traced {
			continue
		}
		c, gate, err = runCampaign(w, s, true, i == 0)
		if err != nil {
			return result{}, inf, err
		}
		check(c, gate, "traced")
		tracedRuns = append(tracedRuns, c)
	}
	inf.Campaigns = len(untraced) + len(tracedRuns)
	inf.ExecErrorRatio = ratio(float64(failed), float64(attempted))
	res := result{Correct: len(inf.Failures) == 0, Attempted: attempted, Failed: failed}
	if traced {
		res.Metrics = layerMetrics(untraced, tracedRuns)
	} else {
		res.Metrics = endToEndMetrics(untraced)
	}
	return res, inf, nil
}

// endToEndMetrics folds untraced campaigns into the end-to-end metrics.
// Every seed counts once, however often it ran: a metric is the median over
// the seeds of each seed's median over its campaigns. Bugs are the unique
// titles the seeds' first campaigns found, as a fleet of that many devices
// would dedup them.
//
// Set-up and throughput are counted in CPU time of the process, so time the
// host takes the CPUs away for does not count, and scaled to a machine on
// which the yardstick takes yardRef: speed is yardRef over the median of
// the run's yardstick times, taken before and after every campaign.
func endToEndMetrics(cs []campaign) map[string]metric {
	bySeed := make(map[int64][]*campaign)
	var seeds []int64
	for i := range cs {
		c := &cs[i]
		if len(bySeed[c.seed]) == 0 {
			seeds = append(seeds, c.seed)
		}
		bySeed[c.seed] = append(bySeed[c.seed], c)
	}
	agg := func(f func(c *campaign) float64) float64 {
		perSeed := make([]float64, len(seeds))
		for i, s := range seeds {
			var v []float64
			for _, c := range bySeed[s] {
				v = append(v, f(c))
			}
			perSeed[i] = median(v)
		}
		return median(perSeed)
	}
	var yards []float64
	for _, c := range cs {
		yards = append(yards, c.yard[0].Seconds(), c.yard[1].Seconds())
	}
	speed := yardRef.Seconds() / median(yards)
	bugs := make(map[string]bool)
	for _, s := range seeds {
		for _, t := range bySeed[s][0].out.bugs {
			bugs[t] = true
		}
	}
	return map[string]metric{
		"setup_s":              {agg(func(c *campaign) float64 { return c.setupCPU.Seconds() }) * speed, "s"},
		"iters_per_cpu_s":      {agg((*campaign).itersPerCPUS) / speed, "1/s"},
		"execs_per_cpu_s":      {agg((*campaign).execsPerCPUS) / speed, "1/s"},
		"kcov":                 {agg(func(c *campaign) float64 { return float64(c.out.kcov) }), "PCs"},
		"signal":               {agg(func(c *campaign) float64 { return float64(c.out.signal) }), "elems"},
		"bugs":                 {float64(len(bugs)), "count"},
		"allocs_per_iter":      {agg(func(c *campaign) float64 { return c.allocsPerIter }), "allocs"},
		"alloc_bytes_per_iter": {agg(func(c *campaign) float64 { return c.bytesPerIter }), "B"},
		"heap_mb":              {agg(func(c *campaign) float64 { return c.heapMB }), "MB"},
	}
}

// spanMetrics are the spans reported as p50 (under the span's own name)
// and p99, plus, for spans the campaigns record, the count per traced
// campaign.
var spanMetrics = []string{
	"gen.generate_us", "gen.mutate_us", "corpus.pick_us",
	"relation.learn_us", "relation.snapshot_rebuild_us", "relation.snapshot_hit_us",
	"feedback.merge_us", "dsl.format_us", "dsl.parse_us",
	"adb.batch_rtt_us", "adb.rpc_rtt_us",
	"device.exec_us", "device.reset_us", "device.export_us", "device.import_us",
	"coord.rpc_us",
}

// tiledLayers are the layers whose self times tile a traced campaign's
// wall.
var tiledLayers = []string{"engine", "adb", "device", "coord"}

// scalarMetrics are the per-layer figures that are not span quantiles,
// with their units. Layers a workload does not cross report 0.
var scalarMetrics = map[string]string{
	"engine.self_us_per_iter":       "us",
	"adb.self_us_per_iter":          "us",
	"device.self_us_per_iter":       "us",
	"coord.self_us_per_iter":        "us",
	"engine.execs_per_iter":         "ratio",
	"engine.admit_per_kiter":        "count",
	"dsl.parse_alloc_bytes":         "B",
	"adb.wire_self_us_per_exec":     "us",
	"adb.pipe_bytes_per_exec":       "B",
	"adb.uplink_bytes_per_exec":     "B",
	"adb.elided_ratio":              "ratio",
	"device.resets_per_iter":        "ratio",
	"device.restore_ratio":          "ratio",
	"coord.fed_bytes_up_per_iter":   "B",
	"coord.fed_bytes_down_per_iter": "B",
	"coord.pipe_writes_per_iter":    "count",
	"coord.steals":                  "count",
	"coord.host_finish_skew_s":      "s",
	"runtime.gc_cpu_frac":           "ratio",
	"runtime.gc_cycles_per_kiter":   "count",
	"trace.sum_ratio":               "ratio",
	"trace.overhead":                "ratio",
}

// layerMetrics folds the traced campaigns (and the untraced campaigns run
// beside them, for the GC figures and the tracing overhead) into the
// per-layer metrics.
func layerMetrics(untraced, traced []campaign) map[string]metric {
	m := make(map[string]metric)
	spans := newSpanLog()
	var wall time.Duration
	self := make(map[string]time.Duration)
	counts := make(map[string][]float64)
	var iters, execs, admitted, restores, reboots float64
	for i := range traced {
		c := &traced[i]
		spans.merge(c.tr.log)
		wall += c.tr.wall
		for layer, d := range c.tr.self {
			self[layer] += d
		}
		for name, v := range c.tr.counts {
			counts[name] = append(counts[name], v)
		}
		iters += float64(c.out.iters)
		execs += float64(c.out.execs)
		admitted += float64(c.out.admitted)
		restores += float64(c.out.restores)
		reboots += float64(c.out.reboots)
	}
	for _, name := range spanMetrics {
		// Probe spans come from the first traced campaign's end state, a
		// fixed number of calls each; campaign spans are also counted, per
		// traced campaign.
		switch layer, _, _ := strings.Cut(name, "."); layer {
		case "gen", "corpus", "relation", "feedback", "dsl":
			p50, p99, _ := traced[0].probes.quantiles(name)
			m[name], m[name+".p99"] = metric{p50, "us"}, metric{p99, "us"}
		default:
			p50, p99, n := spans.quantiles(name)
			m[name], m[name+".p99"] = metric{p50, "us"}, metric{p99, "us"}
			m[name+".n"] = metric{float64(n) / float64(len(traced)), "count"}
		}
	}
	var tiled time.Duration
	for _, layer := range tiledLayers {
		tiled += self[layer]
		m[layer+".self_us_per_iter"] = metric{float64(self[layer]) / 1e3 / iters, "us"}
	}
	for name, unit := range scalarMetrics {
		if _, done := m[name]; !done {
			m[name] = metric{median(counts[name]), unit}
		}
	}
	resets := spans.count("device.reset_us")
	m["engine.execs_per_iter"] = metric{execs / iters, "ratio"}
	m["engine.admit_per_kiter"] = metric{admitted * 1000 / iters, "count"}
	m["device.resets_per_iter"] = metric{float64(resets) / iters, "ratio"}
	m["device.restore_ratio"] = metric{ratio(restores, restores+reboots), "ratio"}
	m["dsl.parse_alloc_bytes"] = metric{traced[0].parseAllocBytes, "B"}
	m["trace.sum_ratio"] = metric{ratio(float64(tiled), float64(wall)), "ratio"}
	// Round i ran untraced[i] and traced[i] on the same seed, so the
	// overhead is taken per pair.
	gcFrac, gcCycles, overhead := make([]float64, len(untraced)), make([]float64, len(untraced)), make([]float64, len(traced))
	for i := range untraced {
		gcFrac[i], gcCycles[i] = untraced[i].gcFrac, untraced[i].gcPerKiter
	}
	for i := range traced {
		overhead[i] = 1 - ratio(traced[i].itersPerCPUS(), untraced[i].itersPerCPUS())
	}
	m["runtime.gc_cpu_frac"] = metric{median(gcFrac), "ratio"}
	m["runtime.gc_cycles_per_kiter"] = metric{median(gcCycles), "count"}
	m["trace.overhead"] = metric{median(overhead), "ratio"}
	return m
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, or 0 when b is 0 (JSON has no NaN).
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// machineInfo is recorded with every result: only ratios measured in one
// binary on one machine, and allocation counts, compare across runs.
type machineInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func fingerprint(commit string) machineInfo {
	if commit == "" {
		commit = "unknown"
	}
	return machineInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		SourceHash: sourceHash("."),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests the Go sources and go.mod files under root, so a
// result names the code it measured even outside a git checkout.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
