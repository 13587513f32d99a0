package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/coord"
	"droidfuzz/internal/corpus"
	"droidfuzz/internal/crash"
	"droidfuzz/internal/daemon"
	"droidfuzz/internal/device"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/engine"
	"droidfuzz/internal/feedback"
	"droidfuzz/internal/probe"
	"droidfuzz/internal/relation"
)

// workload is one campaign shape the benchmark runs. Every campaign is a
// closed loop: an engine issues its next program only after the previous
// result (or the transport window) comes back.
type workload struct {
	name string
	// iters is the campaign budget in iterations per engine.
	iters int
	// seeds is how many distinct campaign seeds a run derives from --seed.
	// Coverage is the median over them and bugs the union, so workloads
	// whose bug discovery varies more by seed use more of them.
	seeds int
	// deterministic workloads must reproduce their outputs exactly for a
	// seed, across campaigns and with tracing on.
	deterministic bool
	setup         func(seed int64, iters int, traced bool) (rig, error)
}

// workloads are the benchmark's campaign shapes; README.md records why each
// exists. A budget keeps one campaign near a second on a 2-vCPU machine, and
// a seed count makes the bug union over the seeds repeat from run to run.
var workloads = []workload{
	{
		name:          "serial-a1",
		iters:         20000,
		seeds:         10,
		deterministic: true,
		setup:         setupSerial(engine.Config{}),
	},
	{
		name:          "batched-wire",
		iters:         2000,
		seeds:         10,
		deterministic: true,
		setup:         setupWire,
	},
	{
		name:          "pristine-lineage",
		iters:         8000,
		seeds:         32,
		deterministic: true,
		setup:         setupSerial(engine.Config{Reset: engine.ResetExec, LineageK: 4}),
	},
	{
		name:  "coord-2host",
		iters: 2500,
		seeds: 10,
		setup: setupCoord,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// rig is one campaign, set up and ready to run.
type rig interface {
	// run executes the campaign budget. tr is nil on untraced runs; traced
	// runs fill in the layer self times and counts.
	run(tr *trace) error
	// result reports the campaign's outputs and checks its exercise gates.
	result() (outcome, error)
	// endState is what the layer probes run against after a traced run.
	endState() probeState
	close()
}

// outcome is what one campaign produced.
type outcome struct {
	iters      int
	execs      uint64 // executions during the run phase
	execErrors uint64
	kcov       int
	signal     int
	bugs       []string // unique bug titles, sorted
	// digest identifies the campaign's outputs (stats, corpus hash, bug
	// titles); deterministic workloads must reproduce it exactly.
	digest string
	// admitted counts corpus admissions during the run phase.
	admitted          uint64
	restores, reboots int
	// setupTail is set-up work that happened after run started, in wall
	// and process CPU time: a coordinated host attaches its first shard's
	// devices only once it has leased the shard.
	setupTail, setupTailCPU time.Duration
}

// trace is what one traced campaign recorded.
type trace struct {
	log *spanLog
	// wall is the traced wall the layer self times must add up to (summed
	// over hosts when several run in parallel).
	wall time.Duration
	self map[string]time.Duration
	// counts are per-layer figures keyed by metric name, already in the
	// unit the metric is reported in.
	counts map[string]float64
}

func newTrace() *trace {
	return &trace{log: newSpanLog(), self: make(map[string]time.Duration), counts: make(map[string]float64)}
}

// bootModel builds a device, its probed target and seed corpus the way
// baseline.NewDroidFuzz and daemon.AddDeviceAs do: probing pass, target
// extended with the probed HAL interfaces, broker over the device.
func bootModel(modelID string) (*adb.Broker, []*dsl.Prog, error) {
	model, err := device.ModelByID(modelID)
	if err != nil {
		return nil, nil, err
	}
	dev := device.New(model)
	target, err := dsl.NewTarget(dev.SyscallDescs()...)
	if err != nil {
		return nil, nil, err
	}
	pr, err := probe.Run(dev, probe.Options{})
	if err != nil {
		return nil, nil, err
	}
	target, err = target.Extend(pr.Interfaces...)
	if err != nil {
		return nil, nil, err
	}
	return adb.NewBroker(dev, target), pr.Seeds, nil
}

// engineDigest fingerprints an engine's outputs: counters, the corpus in
// admission order, and the sorted bug titles.
func engineDigest(e *engine.Engine) string {
	return fmt.Sprintf("%+v corpus=%#x bugs=%q", e.Stats(), corpusHash(e.Corpus()), bugTitles(e.Dedup()))
}

// corpusHash folds the corpus program hashes in admission order.
func corpusHash(c *corpus.Corpus) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range c.Hashes() {
		h = (h ^ x) * 1099511628211
	}
	return h
}

func bugTitles(d *crash.Dedup) []string {
	var titles []string
	for _, r := range d.Records() {
		titles = append(titles, r.Title)
	}
	slices.Sort(titles)
	return titles
}

// serialRig is one engine over an in-process broker, run serially.
type serialRig struct {
	iters   int
	lineage bool
	broker  *adb.Broker
	dev     *timedExec // nil when untraced
	e       *engine.Engine
	start   engine.Stats
	adds0   uint64
}

func setupSerial(cfg engine.Config) func(seed int64, iters int, traced bool) (rig, error) {
	return func(seed int64, iters int, traced bool) (rig, error) {
		broker, seeds, err := bootModel("A1")
		if err != nil {
			return nil, err
		}
		r := &serialRig{iters: iters, lineage: cfg.LineageK > 0, broker: broker}
		var x adb.Executor = broker
		if traced {
			r.dev = &timedExec{names: deviceSpans, log: newSpanLog()}
			x = wrapExecutor(broker, r.dev)
		}
		cfg.Seed = seed
		r.e = engine.New(x, relation.New(), crash.NewDedup(), cfg)
		r.e.SeedCorpus(seeds)
		r.start = r.e.Stats()
		r.adds0 = r.e.Corpus().Adds()
		return r, nil
	}
}

// run is Engine.Run; a traced run drives Engine.Step itself (Run is n
// Steps plus a final accumulator snapshot) so iteration boundaries are
// known: an iteration's engine self time is its wall minus the executor
// spans inside it.
func (r *serialRig) run(tr *trace) error {
	if tr == nil {
		r.e.Run(r.iters)
		return nil
	}
	r.dev.restart(tr.log)
	start := time.Now()
	var engineSelf time.Duration
	for range r.iters {
		d0 := r.dev.busy.Load()
		t0 := time.Now()
		r.e.Step()
		engineSelf += time.Since(t0) - time.Duration(r.dev.busy.Load()-d0)
	}
	t0 := time.Now()
	r.e.Accumulator().Snapshot(r.e.Execs())
	engineSelf += time.Since(t0)
	tr.wall = time.Since(start)
	tr.self["engine"] = engineSelf
	tr.self["device"] = time.Duration(r.dev.self.Load())
	return nil
}

func (r *serialRig) result() (outcome, error) {
	o := engineOutcome(r.e, r.iters, r.start, r.adds0)
	st := r.e.Stats()
	if r.lineage {
		if st.LineageExecs == 0 {
			return o, errors.New("no lineage executions")
		}
		if o.restores < r.iters {
			return o, fmt.Errorf("%d restores for %d iterations", o.restores, r.iters)
		}
	}
	return o, nil
}

func engineOutcome(e *engine.Engine, iters int, start engine.Stats, adds0 uint64) outcome {
	st := e.Stats()
	return outcome{
		iters:      iters,
		execs:      st.Execs - start.Execs,
		execErrors: st.ExecErrors,
		kcov:       st.KernelCov,
		signal:     st.TotalSignal,
		bugs:       bugTitles(e.Dedup()),
		digest:     engineDigest(e),
		admitted:   e.Corpus().Adds() - adds0,
		restores:   st.Restores - start.Restores,
		reboots:    st.Reboots - start.Reboots,
	}
}

func (r *serialRig) endState() probeState {
	return probeState{x: r.broker, graph: r.e.Graph(), corpus: r.e.Corpus(), acc: r.e.Accumulator()}
}

func (r *serialRig) close() {}

// wireRig is one engine driving a broker through the transport: adb.Dial
// on the host end of a net.Pipe, adb.Server with a per-connection uplink
// filter on the device end, as droidfleet -remote runs against
// droidbrokerd.
type wireRig struct {
	iters          int
	conn           *adb.Conn
	devEnd         net.Conn
	served         chan error
	pipe           *countedConn // nil when untraced
	client, server *timedExec
	e              *engine.Engine
	start          engine.Stats
	adds0          uint64
}

const (
	wireDepth = 4
	wireBatch = 16
)

func setupWire(seed int64, iters int, traced bool) (rig, error) {
	broker, seeds, err := bootModel("A1")
	if err != nil {
		return nil, err
	}
	texts := make([]string, len(seeds))
	for i, p := range seeds {
		texts[i] = p.String()
	}
	target := broker.Target()
	srv := &adb.Server{
		X:         broker,
		Seeds:     texts,
		NewFilter: func() adb.UplinkFilter { return feedback.NewUplinkFilter(target) },
	}
	r := &wireRig{iters: iters, served: make(chan error, 1)}
	hostEnd, devEnd := net.Pipe()
	r.devEnd = devEnd
	var rw net.Conn = hostEnd
	if traced {
		r.server = &timedExec{names: deviceSpans, log: newSpanLog()}
		srv.X = wrapExecutor(broker, r.server)
		r.pipe = &countedConn{Conn: hostEnd}
		rw = r.pipe
	}
	go func() { r.served <- srv.Serve(devEnd) }()
	r.conn = adb.Dial(rw)
	rep, err := r.conn.Handshake()
	if err != nil {
		r.close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	hostSeeds := make([]*dsl.Prog, len(rep.Seeds))
	for i, text := range rep.Seeds {
		if hostSeeds[i], err = dsl.ParseProg(r.conn.Target(), text); err != nil {
			r.close()
			return nil, fmt.Errorf("seed %d: %w", i, err)
		}
	}
	var x adb.Executor = r.conn
	if traced {
		r.client = &timedExec{names: wireSpans, log: newSpanLog(), nested: r.server}
		x = wrapExecutor(r.conn, r.client)
	}
	r.e = engine.New(x, relation.New(), crash.NewDedup(), engine.Config{Seed: seed})
	r.e.SeedCorpus(hostSeeds)
	r.start = r.e.Stats()
	r.adds0 = r.e.Corpus().Adds()
	return r, nil
}

func (r *wireRig) run(tr *trace) error {
	if tr == nil {
		r.e.RunPipelinedBatched(r.iters, wireDepth, wireBatch)
		return nil
	}
	r.client.restart(tr.log)
	r.server.restart(tr.log)
	r.pipe.restart()
	start := time.Now()
	r.e.RunPipelinedBatched(r.iters, wireDepth, wireBatch)
	tr.wall = time.Since(start)
	// Generation runs in the producer goroutine, off the critical path;
	// on the consumer's path everything outside executor calls is engine
	// work (feedback, admission, minimization bookkeeping).
	tr.self["engine"] = tr.wall - time.Duration(r.client.busy.Load())
	tr.self["adb"] = time.Duration(r.client.self.Load())
	tr.self["device"] = time.Duration(r.server.self.Load())
	execs := float64(r.e.Stats().Execs - r.start.Execs)
	ws := r.conn.WireStats()
	tr.counts["adb.wire_self_us_per_exec"] = float64(r.client.self.Load()) / 1e3 / execs
	tr.counts["adb.pipe_bytes_per_exec"] = float64(r.pipe.read.Load()+r.pipe.written.Load()) / execs
	tr.counts["adb.uplink_bytes_per_exec"] = float64(ws.CovWireBytes) / float64(ws.Execs)
	tr.counts["adb.elided_ratio"] = float64(ws.Elided) / float64(ws.Execs)
	return nil
}

func (r *wireRig) result() (outcome, error) {
	o := engineOutcome(r.e, r.iters, r.start, r.adds0)
	ws := r.conn.WireStats()
	if ws.Elided == 0 {
		return o, errors.New("summary uplink elided no traces")
	}
	if ws.Execs != uint64(r.iters) {
		return o, fmt.Errorf("broker executed %d batch entries for %d iterations", ws.Execs, r.iters)
	}
	return o, nil
}

func (r *wireRig) endState() probeState {
	return probeState{x: r.conn, graph: r.e.Graph(), corpus: r.e.Corpus(), acc: r.e.Accumulator()}
}

func (r *wireRig) close() {
	r.conn.Close()
	<-r.served
	r.devEnd.Close()
}

// coordRig is a coordinated fleet: one coord.Coordinator and two
// coord.Hosts in-process, each host dialing the coordinator over its own
// net.Pipe.
type coordRig struct {
	iters      int
	c          *coord.Coordinator
	hosts      []*coord.Host
	clients    []*coord.Client
	serving    sync.WaitGroup
	fleet      []*hostTrace
	finish     []time.Duration
	started    time.Time
	startedCPU time.Duration
}

// hostTrace is one host's tracing state; every field is written only by
// that host's goroutine, or before it starts.
type hostTrace struct {
	traced  bool
	log     *spanLog
	devs    []*timedExec
	brokers []*adb.Broker
	conns   []*countedConn // host ends of the coordinator streams
	srv     []*countedConn // coordinator ends
	// firstIter is when the host's first shard device was attached, ready
	// to iterate, and firstIterCPU the process CPU time then.
	firstIter    time.Time
	firstIterCPU time.Duration
}

const (
	coordHosts  = 2
	coordShards = 4
)

func setupCoord(seed int64, iters int, traced bool) (rig, error) {
	c, err := coord.New(coord.Campaign{
		Models: []string{"A1"}, Shards: coordShards, Devices: 1, Iters: iters, Seed: seed,
	}, coord.Options{Hosts: coordHosts})
	if err != nil {
		return nil, err
	}
	r := &coordRig{iters: iters, c: c, finish: make([]time.Duration, coordHosts)}
	srv := &coord.Server{C: c}
	for i := range coordHosts {
		ht := &hostTrace{traced: traced, log: newSpanLog()}
		r.fleet = append(r.fleet, ht)
		cl, err := coord.DialClient("pipe", coord.ClientOptions{
			Dialer: func() (io.ReadWriteCloser, error) {
				hostEnd, coordEnd := net.Pipe()
				var h, s net.Conn = hostEnd, coordEnd
				if traced {
					hc := &countedConn{Conn: hostEnd, rpcs: ht.log}
					sc := &countedConn{Conn: coordEnd}
					ht.conns = append(ht.conns, hc)
					ht.srv = append(ht.srv, sc)
					h, s = hc, sc
				}
				r.serving.Add(1)
				go func() {
					defer r.serving.Done()
					_ = srv.Serve(s)
					s.Close()
				}()
				return h, nil
			},
		})
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, cl)
		r.hosts = append(r.hosts, coord.NewHost(cl, coord.HostOptions{
			Name:       fmt.Sprintf("bench%d", i),
			LeaseRetry: time.Millisecond,
			Attach:     r.attach(ht),
		}))
	}
	return r, nil
}

// attach is daemon.AddDeviceAs with the broker optionally behind a timed
// wrapper.
func (r *coordRig) attach(ht *hostTrace) func(d *daemon.Daemon, id, model string, seed int64) error {
	return func(d *daemon.Daemon, id, model string, seed int64) error {
		broker, seeds, err := bootModel(model)
		if err != nil {
			return err
		}
		var x adb.Executor = broker
		if ht.traced {
			dev := &timedExec{names: deviceSpans, log: ht.log}
			x = wrapExecutor(broker, dev)
			ht.devs = append(ht.devs, dev)
			ht.brokers = append(ht.brokers, broker)
		}
		if err := d.AttachExecutor(id, x, seeds, engine.Config{Seed: seed}); err != nil {
			return err
		}
		if ht.firstIter.IsZero() {
			ht.firstIter = time.Now()
			ht.firstIterCPU = cpuTime()
		}
		return nil
	}
}

func (r *coordRig) run(tr *trace) error {
	errs := make([]error, len(r.hosts))
	var wg sync.WaitGroup
	r.started = time.Now()
	r.startedCPU = cpuTime()
	for i, h := range r.hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = h.Run()
			r.finish[i] = time.Since(r.started)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if tr != nil {
		r.fillTrace(tr)
	}
	return nil
}

// fillTrace splits each host's wall into device time, time blocked on the
// coordinator stream, and the rest (engine iterations, federation apply
// and collect, and attach work outside the device), which the benchmark
// cannot bracket from outside coord.Host.
func (r *coordRig) fillTrace(tr *trace) {
	var writes int64
	for i, ht := range r.fleet {
		tr.log.merge(ht.log)
		wall := r.finish[i]
		tr.wall += wall
		var dev, blocked time.Duration
		for _, t := range ht.devs {
			dev += time.Duration(t.self.Load())
		}
		for _, c := range ht.conns {
			c.finish()
			blocked += time.Duration(c.busy.Load())
			writes += c.writes.Load()
		}
		for _, c := range ht.srv {
			writes += c.writes.Load()
		}
		tr.self["device"] += dev
		tr.self["coord"] += blocked
		tr.self["engine"] += wall - dev - blocked
	}
	iters := float64(coordShards * r.iters)
	st, _ := r.c.Snapshot()
	tr.counts["coord.fed_bytes_up_per_iter"] = float64(st.BytesIn) / iters
	tr.counts["coord.fed_bytes_down_per_iter"] = float64(st.BytesOut) / iters
	tr.counts["coord.pipe_writes_per_iter"] = float64(writes) / iters
	tr.counts["coord.steals"] = float64(st.Steals)
	tr.counts["coord.host_finish_skew_s"] = (max(r.finish[0], r.finish[1]) - min(r.finish[0], r.finish[1])).Seconds()
}

func (r *coordRig) result() (outcome, error) {
	o := outcome{iters: coordShards * r.iters}
	pcs := make(map[uint32]struct{})
	titles := make(map[string]struct{})
	for _, h := range r.hosts {
		d := h.Daemon()
		for _, id := range d.Devices() {
			e := d.Engine(id)
			st := e.Stats()
			o.execs += st.Execs
			o.execErrors += st.ExecErrors
			o.signal += st.TotalSignal
			o.admitted += e.Corpus().Adds()
			o.restores += st.Restores
			o.reboots += st.Reboots
			for _, pc := range e.Accumulator().KernelPCs() {
				pcs[pc] = struct{}{}
			}
		}
		for _, t := range bugTitles(d.Dedup()) {
			titles[t] = struct{}{}
		}
	}
	o.kcov = len(pcs)
	for t := range titles {
		o.bugs = append(o.bugs, t)
	}
	slices.Sort(o.bugs)
	for _, ht := range r.fleet {
		o.setupTail = max(o.setupTail, ht.firstIter.Sub(r.started))
		o.setupTailCPU = max(o.setupTailCPU, ht.firstIterCPU-r.startedCPU)
	}
	st, _ := r.c.Snapshot()
	f0, f1 := r.hosts[0].Fingerprint(), r.hosts[1].Fingerprint()
	o.digest = fmt.Sprintf("fingerprint=%#x", f0)
	switch {
	case st.ShardsDone != coordShards || !st.Done:
		return o, fmt.Errorf("%d of %d shards done", st.ShardsDone, coordShards)
	case f0 == 0 || f0 != f1:
		return o, fmt.Errorf("host fingerprints %#x and %#x differ or are zero", f0, f1)
	case st.BytesIn == 0 || st.BytesOut == 0:
		return o, fmt.Errorf("federation moved %d bytes up and %d down", st.BytesIn, st.BytesOut)
	}
	return o, nil
}

func (r *coordRig) endState() probeState {
	d := r.hosts[0].Daemon()
	e := d.Engine(d.Devices()[0])
	var x adb.Executor = e.Executor()
	if ht := r.fleet[0]; len(ht.brokers) > 0 {
		x = ht.brokers[0]
	}
	return probeState{x: x, graph: e.Graph(), corpus: e.Corpus(), acc: e.Accumulator()}
}

func (r *coordRig) close() {
	for _, cl := range r.clients {
		cl.Close()
	}
	r.serving.Wait()
}
