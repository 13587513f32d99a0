package main

import (
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/dsl"
)

// spanLog keeps the durations of named spans in memory; the summary is
// computed once the traced campaign has ended.
type spanLog struct {
	mu    sync.Mutex
	spans map[string][]time.Duration
}

func newSpanLog() *spanLog { return &spanLog{spans: make(map[string][]time.Duration)} }

func (l *spanLog) add(name string, d time.Duration) {
	l.mu.Lock()
	l.spans[name] = append(l.spans[name], d)
	l.mu.Unlock()
}

// merge folds o's spans into l.
func (l *spanLog) merge(o *spanLog) {
	o.mu.Lock()
	defer o.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	for name, ds := range o.spans {
		l.spans[name] = append(l.spans[name], ds...)
	}
}

// count reports how many spans of that name were recorded.
func (l *spanLog) count(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans[name])
}

// quantiles returns the p50 and p99 of the named spans in microseconds
// and their count.
func (l *spanLog) quantiles(name string) (p50, p99 float64, n int) {
	l.mu.Lock()
	ds := slices.Clone(l.spans[name])
	l.mu.Unlock()
	if len(ds) == 0 {
		return 0, 0, 0
	}
	slices.Sort(ds)
	at := func(q float64) float64 {
		return float64(ds[int(q*float64(len(ds)-1))].Nanoseconds()) / 1e3
	}
	return at(0.50), at(0.99), len(ds)
}

// Executor operations, each timed under its own span name.
type execOp int

const (
	opExec execOp = iota
	opBatch
	opReset
	opExport
	opImport
	nOps
)

// deviceSpans names the spans of an executor that runs programs itself:
// the in-process broker, or the broker behind a transport server.
var deviceSpans = [nOps]string{
	opExec:   "device.exec_us",
	opBatch:  "device.exec_us",
	opReset:  "device.reset_us",
	opExport: "device.export_us",
	opImport: "device.import_us",
}

// wireSpans names the spans of the host end of a transport connection.
var wireSpans = [nOps]string{
	opExec:   "adb.rpc_rtt_us",
	opBatch:  "adb.batch_rtt_us",
	opReset:  "adb.rpc_rtt_us",
	opExport: "adb.rpc_rtt_us",
	opImport: "adb.rpc_rtt_us",
}

// timedExec times every call into an executor. busy is the total time
// spent inside the wrapped calls. When nested is set, the nested
// executor's calls run inside this one's (the broker behind the server
// end of a connection this executor is the host end of): the part of
// each call the nested executor did not spend is recorded as this
// layer's self time.
type timedExec struct {
	x      adb.Executor
	names  [nOps]string
	log    *spanLog
	busy   atomic.Int64
	nested *timedExec
	self   atomic.Int64
}

func (t *timedExec) begin() (time.Time, int64) {
	var inner int64
	if t.nested != nil {
		inner = t.nested.busy.Load()
	}
	return time.Now(), inner
}

func (t *timedExec) end(op execOp, start time.Time, inner0 int64) {
	d := time.Since(start)
	t.busy.Add(int64(d))
	self := d
	if t.nested != nil {
		self -= time.Duration(t.nested.busy.Load() - inner0)
	}
	t.self.Add(int64(max(self, 0)))
	t.log.add(t.names[op], d)
}

func (t *timedExec) Exec(req adb.ExecRequest) (*adb.ExecResult, error) {
	s, n := t.begin()
	defer t.end(opExec, s, n)
	return t.x.Exec(req)
}

func (t *timedExec) ExecProg(p *dsl.Prog) (*adb.ExecResult, error) {
	s, n := t.begin()
	defer t.end(opExec, s, n)
	return t.x.ExecProg(p)
}

func (t *timedExec) Reboot() error {
	s, n := t.begin()
	defer t.end(opReset, s, n)
	return t.x.Reboot()
}

func (t *timedExec) Reset() (bool, error) {
	s, n := t.begin()
	defer t.end(opReset, s, n)
	return t.x.Reset()
}

func (t *timedExec) Ping() error             { return t.x.Ping() }
func (t *timedExec) Info() (adb.Info, error) { return t.x.Info() }
func (t *timedExec) Target() *dsl.Target     { return t.x.Target() }

func (t *timedExec) execBatch(bx adb.BatchExecutor, req adb.ExecBatchRequest) ([]*adb.ExecResult, error) {
	s, n := t.begin()
	defer t.end(opBatch, s, n)
	return bx.ExecBatch(req)
}

func (t *timedExec) exportCheckpoint(cl adb.Cloner) ([]byte, error) {
	s, n := t.begin()
	defer t.end(opExport, s, n)
	return cl.ExportCheckpoint()
}

func (t *timedExec) importCheckpoint(cl adb.Cloner, blob []byte) error {
	s, n := t.begin()
	defer t.end(opImport, s, n)
	return cl.ImportCheckpoint(blob)
}

// The engine type-asserts adb.BatchExecutor (batched runs) and adb.Cloner
// (lineage fan-out, shard checkpoints), so a wrapper that dropped either
// would silently switch the measured program to another code path, and one
// that added either would switch it on where the wrapped executor has none.
// wrapExecutor therefore returns one of four types whose method sets match
// the wrapped executor's exactly.

type timedBatch struct {
	*timedExec
	bx adb.BatchExecutor
}

func (t timedBatch) ExecBatch(req adb.ExecBatchRequest) ([]*adb.ExecResult, error) {
	return t.execBatch(t.bx, req)
}

type timedCloner struct {
	*timedExec
	cl adb.Cloner
}

func (t timedCloner) ExportCheckpoint() ([]byte, error)  { return t.exportCheckpoint(t.cl) }
func (t timedCloner) ImportCheckpoint(blob []byte) error { return t.importCheckpoint(t.cl, blob) }

type timedBatchCloner struct {
	*timedExec
	bx adb.BatchExecutor
	cl adb.Cloner
}

func (t timedBatchCloner) ExecBatch(req adb.ExecBatchRequest) ([]*adb.ExecResult, error) {
	return t.execBatch(t.bx, req)
}
func (t timedBatchCloner) ExportCheckpoint() ([]byte, error)  { return t.exportCheckpoint(t.cl) }
func (t timedBatchCloner) ImportCheckpoint(blob []byte) error { return t.importCheckpoint(t.cl, blob) }

// wrapExecutor returns x behind t, with exactly x's optional extensions.
func wrapExecutor(x adb.Executor, t *timedExec) adb.Executor {
	t.x = x
	bx, isBatch := x.(adb.BatchExecutor)
	cl, isCloner := x.(adb.Cloner)
	switch {
	case isBatch && isCloner:
		return timedBatchCloner{t, bx, cl}
	case isBatch:
		return timedBatch{t, bx}
	case isCloner:
		return timedCloner{t, cl}
	default:
		return t
	}
}

// countedConn is a net.Conn (so transport deadlines still apply) that
// counts the bytes and writes through it and, when rpcs is set, the time
// each request/reply exchange spends blocked in Write and Read. An
// exchange starts at the first Write after a Read; the coordinator client
// is lock-step, so each exchange is one RPC.
type countedConn struct {
	net.Conn
	rpcs *spanLog

	read, written, writes atomic.Int64
	busy                  atomic.Int64

	mu       sync.Mutex
	cur      time.Duration
	inCall   bool
	lastRead bool
}

func (c *countedConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.note(time.Since(t0), true)
	c.read.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.note(time.Since(t0), false)
	c.written.Add(int64(n))
	c.writes.Add(1)
	return n, err
}

func (c *countedConn) note(d time.Duration, isRead bool) {
	c.busy.Add(int64(d))
	if c.rpcs == nil {
		return
	}
	c.mu.Lock()
	if !isRead && c.lastRead {
		c.flushLocked()
	}
	c.inCall = true
	c.cur += d
	c.lastRead = isRead
	c.mu.Unlock()
}

func (c *countedConn) flushLocked() {
	if c.inCall {
		c.rpcs.add("coord.rpc_us", c.cur)
	}
	c.cur, c.inCall = 0, false
}

// finish records the exchange still open when the stream is done.
func (c *countedConn) finish() {
	if c.rpcs == nil {
		return
	}
	c.mu.Lock()
	c.flushLocked()
	c.mu.Unlock()
}

// restart drops what set-up recorded, so a traced run reports only the
// campaign's own calls.
func (t *timedExec) restart(log *spanLog) {
	t.log = log
	t.busy.Store(0)
	t.self.Store(0)
}

func (c *countedConn) restart() {
	c.read.Store(0)
	c.written.Store(0)
	c.writes.Store(0)
	c.busy.Store(0)
}
