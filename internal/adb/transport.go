package adb

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"droidfuzz/internal/dsl"
)

// The transport stands in for ADB: a message-framed, gob-encoded
// request/reply channel between the host-side fuzzing engine and the
// device-side broker. It runs over any io.ReadWriter — net.Pipe in-process,
// or a TCP loopback socket for the CLI tools — and carries the full
// Executor contract: program execution, reboot, liveness, and the identity
// handshake that binds a host engine to a remote target.
//
// Wire protocol v2 is multiplexed: every request carries a sequence tag the
// reply echoes, a dedicated writer goroutine owns the encoder and a reader
// goroutine owns the decoder, and a configurable window bounds how many
// requests may be in flight at once. The synchronous Executor API is a thin
// submit-and-wait layer over that core, so serial callers behave exactly as
// they did under the v1 lock-step protocol, while windowed callers (batched
// engines, several workers sharing one Conn) overlap request framing with
// device execution. See wire.go for the batched-execution RPC and the
// delta-coded coverage uplink.

// ErrTransport marks stream-level failures: a broken pipe, a garbled or
// truncated frame, a deadline hit. Errors wrapping it mean the connection
// is unusable and the caller should reconnect; application-level failures
// from the device side arrive as *RemoteError instead and leave the stream
// healthy. Test with errors.Is(err, ErrTransport).
var ErrTransport = errors.New("adb: transport failure")

// RemoteError is an application-level error reported by the device side of
// a transport connection (a bad program, a failed reboot). The stream
// stays in sync; only this request failed.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

type rpcRequest struct {
	// Tag is the request sequence ID; the reply echoes it so a windowed
	// client matches completions to callers without relying on reply order.
	Tag uint64
	// Batch is the one exec RPC: a singleton Exec is a one-program,
	// non-summary batch.
	Batch    *ExecBatchRequest
	Ping     bool
	Reboot   bool
	Reset    bool
	Info     bool
	Describe bool
	Export   bool
	Import   *ImportRequest
}

// ImportRequest carries a portable checkpoint to re-materialize on the
// device-side broker. The blob is an opaque pre-encoded device.Checkpoint:
// the rpc layer never decodes it, so checkpoint evolution does not touch
// the wire format.
type ImportRequest struct {
	Blob []byte
}

type rpcReply struct {
	Tag        uint64
	Batch      *ExecBatchReply
	Pong       bool
	Restored   bool
	Info       *Info
	Describe   *DescribeReply
	Checkpoint []byte
	Imported   bool
	Err        string
}

// DescribeReply is the attach-time handshake payload: the device identity
// plus everything a host engine needs to generate programs for it — the
// full call-description surface and the distilled seed workloads from the
// device-side probing pass, in canonical DSL text form.
type DescribeReply struct {
	Info Info
	// Calls is the broker target's call-description surface in
	// registration order; the host rebuilds an identical dsl.Target from
	// it (gob round-trips every syntax field losslessly, so the rebuilt
	// target hashes identically).
	Calls []*dsl.CallDesc
	// Seeds are probing-pass seed programs in DSL text, parseable against
	// the rebuilt target.
	Seeds []string
}

// DefaultWindow is the in-flight request bound used when SetWindow was not
// called.
const DefaultWindow = 8

// pendingCall is one in-flight request: the reader goroutine (or the
// poisoning path) completes it by filling rep/err and closing done.
type pendingCall struct {
	req  rpcRequest
	rep  rpcReply
	err  error
	done chan struct{}
}

// Conn is the host side of a transport connection; it implements Executor.
// A Conn is not resilient: the first stream-level failure poisons it (the
// gob streams cannot resync) and every later call fails fast with the same
// ErrTransport-wrapped error. Wrap it in Resilient for reconnection.
//
// The underlying stream should be closable (net.Conn, net.Pipe): poisoning
// closes it to unblock the reader and writer goroutines.
type Conn struct {
	mu      sync.Mutex
	rwc     io.ReadWriter
	enc     *gob.Encoder // owned by writeLoop once started
	dec     *gob.Decoder // owned by readLoop once started
	timeout time.Duration
	window  int
	frame   int // programs per batch frame; tests shrink it
	broken  error
	target  *dsl.Target
	info    Info
	stats   WireStats

	started bool
	nextTag uint64
	pending map[uint64]*pendingCall
	sendq   chan *pendingCall
	slots   chan struct{}
	quit    chan struct{}
}

var (
	_ Executor      = (*Conn)(nil)
	_ BatchExecutor = (*Conn)(nil)
	_ Cloner        = (*Conn)(nil)
)

// Dial wraps an established byte stream as the host end.
func Dial(rw io.ReadWriter) *Conn {
	return &Conn{enc: gob.NewEncoder(rw), dec: gob.NewDecoder(rw), rwc: rw, frame: batchFrame}
}

// DialTCP connects to a broker served on a TCP address, bounding the dial
// by DialTimeout.
func DialTCP(addr string) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrTransport, addr, err)
	}
	return Dial(c), nil
}

// SetCallTimeout bounds the wait for every subsequent call's reply; 0
// disables the bound. A timeout breaks the connection like any other
// stream failure — the gob stream cannot be resynced around an abandoned
// reply.
func (c *Conn) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// SetWindow bounds how many requests may be in flight at once (default
// DefaultWindow). It must be called before the connection's first call;
// later calls have no effect.
func (c *Conn) SetWindow(n int) {
	c.mu.Lock()
	if !c.started && n > 0 {
		c.window = n
	}
	c.mu.Unlock()
}

// WireStats returns the uplink byte accounting reported by the broker for
// this connection's summary-mode batches (zero until the first one).
func (c *Conn) WireStats() WireStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close closes the underlying stream when it is closable.
func (c *Conn) Close() error {
	if cl, ok := c.rwc.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// startLocked spins up the writer and reader goroutines on first use.
// Called with c.mu held.
func (c *Conn) startLocked() {
	if c.started {
		return
	}
	c.started = true
	if c.window <= 0 {
		c.window = DefaultWindow
	}
	c.pending = make(map[uint64]*pendingCall, c.window)
	c.sendq = make(chan *pendingCall, c.window)
	c.slots = make(chan struct{}, c.window)
	c.quit = make(chan struct{})
	go c.writeLoop()
	go c.readLoop()
}

// submit registers a request in the in-flight window and hands it to the
// writer goroutine. It blocks while the window is full and fails fast once
// the connection is poisoned.
func (c *Conn) submit(req rpcRequest) (*pendingCall, error) {
	c.mu.Lock()
	if c.broken != nil {
		err := c.broken
		c.mu.Unlock()
		return nil, err
	}
	c.startLocked()
	slots, quit := c.slots, c.quit
	c.mu.Unlock()

	select {
	case slots <- struct{}{}: // acquire a window slot
	case <-quit:
		c.mu.Lock()
		err := c.broken
		c.mu.Unlock()
		return nil, err
	}
	c.mu.Lock()
	if c.broken != nil {
		err := c.broken
		c.mu.Unlock()
		<-slots
		return nil, err
	}
	c.nextTag++
	req.Tag = c.nextTag
	pc := &pendingCall{req: req, done: make(chan struct{})}
	c.pending[req.Tag] = pc
	c.mu.Unlock()
	// sendq is buffered to the window size and each registered call holds a
	// slot, so this never blocks even if the writer has exited.
	c.sendq <- pc
	return pc, nil
}

// wait blocks until the call completes or the call timeout fires (which
// poisons the connection — an abandoned reply would desync the stream).
func (c *Conn) wait(pc *pendingCall) (rpcReply, error) {
	c.mu.Lock()
	d := c.timeout
	c.mu.Unlock()
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-pc.done:
		case <-timer.C:
			c.fail(fmt.Errorf("%w: call timed out after %v", ErrTransport, d))
			<-pc.done
		}
	} else {
		<-pc.done
	}
	if pc.err != nil {
		return rpcReply{}, pc.err
	}
	if pc.rep.Err != "" {
		return pc.rep, &RemoteError{Msg: pc.rep.Err}
	}
	return pc.rep, nil
}

// writeLoop is the sole user of the encoder: it serializes queued requests
// onto the wire in submission order.
func (c *Conn) writeLoop() {
	for {
		select {
		case pc := <-c.sendq:
			c.mu.Lock()
			broken := c.broken
			c.mu.Unlock()
			if broken != nil {
				continue // fail already completed the call
			}
			if err := c.enc.Encode(&pc.req); err != nil {
				c.fail(fmt.Errorf("%w: send: %v", ErrTransport, err))
				return
			}
		case <-c.quit:
			return
		}
	}
}

// readLoop is the sole user of the decoder: it matches each reply to its
// in-flight call by tag and completes it, releasing the window slot.
func (c *Conn) readLoop() {
	for {
		var rep rpcReply
		if err := c.dec.Decode(&rep); err != nil {
			c.fail(fmt.Errorf("%w: recv: %v", ErrTransport, err))
			return
		}
		c.mu.Lock()
		pc := c.pending[rep.Tag]
		delete(c.pending, rep.Tag)
		c.mu.Unlock()
		if pc == nil {
			c.fail(fmt.Errorf("%w: recv: unmatched reply tag %d", ErrTransport, rep.Tag))
			return
		}
		pc.rep = rep
		close(pc.done)
		<-c.slots
	}
}

// fail poisons the connection: the first failure sticks, the stream is
// closed to unblock the writer and reader goroutines, and every in-flight
// call completes with the poisoning error.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = err
		if c.quit != nil {
			close(c.quit)
		}
		if cl, ok := c.rwc.(io.Closer); ok {
			cl.Close()
		}
	}
	err = c.broken
	stale := c.pending
	c.pending = make(map[uint64]*pendingCall, 1)
	c.mu.Unlock()
	// Every stale call gets the same terminal error; delivery order among
	// already-failed RPCs is unobservable to callers.
	for _, pc := range stale { //droidvet:nondet order-independent failure fan-out
		pc.err = err
		close(pc.done)
		<-c.slots
	}
}

// roundTrip performs one synchronous request over the async core.
func (c *Conn) roundTrip(req rpcRequest) (rpcReply, error) {
	pc, err := c.submit(req)
	if err != nil {
		return rpcReply{}, err
	}
	return c.wait(pc)
}

// Exec implements Executor over the transport as a one-program batch
// frame. The frame is not in summary mode, so nothing is elided and the
// lossless delta codec hands back the exact result minimization and crash
// triage depend on. A broker rejection of the program arrives as
// *RemoteError. The result is pooled and owned by the caller, who must
// Release it.
func (c *Conn) Exec(req ExecRequest) (*ExecResult, error) {
	pc, err := c.submit(rpcRequest{Batch: &ExecBatchRequest{Progs: []string{req.ProgText}}})
	if err != nil {
		return nil, err
	}
	frame, err := c.waitFrame(pc, false)
	if err != nil {
		return nil, err
	}
	if len(frame.Results) != 1 {
		return nil, &RemoteError{Msg: "adb: empty exec reply"}
	}
	return frame.Results[0].result()
}

// ExecProg implements Executor: the program crosses the wire in its
// canonical text form and is re-parsed by the device-side broker (the
// round trip is lossless). As with Exec, the caller owns the result and
// should Release it.
func (c *Conn) ExecProg(p *dsl.Prog) (*ExecResult, error) {
	return c.Exec(ExecRequest{ProgText: p.String()})
}

// Ping round-trips a liveness check.
func (c *Conn) Ping() error {
	rep, err := c.roundTrip(rpcRequest{Ping: true})
	if err != nil {
		return err
	}
	if !rep.Pong {
		return &RemoteError{Msg: "adb: bad pong"}
	}
	return nil
}

// Reboot implements Executor: the device-side broker reboots its device.
func (c *Conn) Reboot() error {
	_, err := c.roundTrip(rpcRequest{Reboot: true})
	return err
}

// Reset implements Executor: the device-side broker restores its device
// from the boot snapshot, rebooting only when restore cannot reach
// pristine state. The reply reports which path ran, so remote campaigns
// account restores and reboots the same way local ones do.
func (c *Conn) Reset() (bool, error) {
	rep, err := c.roundTrip(rpcRequest{Reset: true})
	if err != nil {
		return false, err
	}
	return rep.Restored, nil
}

// ExportCheckpoint implements Cloner: the device-side broker serializes
// its device state and ships the opaque blob back.
func (c *Conn) ExportCheckpoint() ([]byte, error) {
	rep, err := c.roundTrip(rpcRequest{Export: true})
	if err != nil {
		return nil, err
	}
	if len(rep.Checkpoint) == 0 {
		return nil, &RemoteError{Msg: "adb: empty checkpoint reply"}
	}
	return rep.Checkpoint, nil
}

// ImportCheckpoint implements Cloner: the device-side broker
// re-materializes the blob onto its (same-model) device.
func (c *Conn) ImportCheckpoint(blob []byte) error {
	rep, err := c.roundTrip(rpcRequest{Import: &ImportRequest{Blob: blob}})
	if err != nil {
		return err
	}
	if !rep.Imported {
		return &RemoteError{Msg: "adb: checkpoint import not acknowledged"}
	}
	return nil
}

// Info implements Executor with a live identity round trip.
func (c *Conn) Info() (Info, error) {
	rep, err := c.roundTrip(rpcRequest{Info: true})
	if err != nil {
		return Info{}, err
	}
	if rep.Info == nil {
		return Info{}, &RemoteError{Msg: "adb: empty info reply"}
	}
	c.mu.Lock()
	c.info = *rep.Info
	c.mu.Unlock()
	return *rep.Info, nil
}

// Target implements Executor: the host-side target bound by Handshake (nil
// before a successful handshake).
func (c *Conn) Target() *dsl.Target {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.target
}

// Handshake performs the Describe round trip, rebuilds the device's
// call-description target host-side, and verifies the rebuilt target
// hashes to the device-reported fingerprint before binding it to the
// connection. Engines attach to the Conn only after a clean handshake.
func (c *Conn) Handshake() (*DescribeReply, error) {
	rep, err := c.roundTrip(rpcRequest{Describe: true})
	if err != nil {
		return nil, err
	}
	if rep.Describe == nil {
		return nil, &RemoteError{Msg: "adb: empty describe reply"}
	}
	target, err := dsl.NewTarget(rep.Describe.Calls...)
	if err != nil {
		return nil, fmt.Errorf("adb: handshake: rebuild target: %w", err)
	}
	if h := target.Hash(); h != rep.Describe.Info.TargetHash {
		return nil, fmt.Errorf("adb: handshake: target hash mismatch: host %#x, device %#x",
			h, rep.Describe.Info.TargetHash)
	}
	c.mu.Lock()
	c.target = target
	c.info = rep.Describe.Info
	c.mu.Unlock()
	return rep.Describe, nil
}

// Server is the device side of the transport: it dispatches protocol
// requests to an Executor (usually the in-process *Broker) and answers the
// Describe handshake with the executor's identity plus optional seed
// programs from the probing pass.
type Server struct {
	X Executor
	// Seeds are probing-pass seed programs in DSL text form, handed to
	// hosts at handshake so a remote engine bootstraps the same corpus an
	// in-process one would.
	Seeds []string
	// NewFilter, when set, builds one UplinkFilter per served connection:
	// the broker-side mirror of the host engine's feedback pipeline that
	// lets summary-mode batches elide traces carrying no new signal. Nil
	// disables elision (batches still delta-code their traces).
	NewFilter func() UplinkFilter
}

// Serve runs the device side of the protocol over rw until the stream
// ends; see ServeFrames for the error and panic contract. Windowed clients
// get pipelining (the next request is already framed while this one
// executes), not reordering. Every reply echoes its request's Tag.
func (s *Server) Serve(rw io.ReadWriter) error {
	st := &connState{}
	if s.NewFilter != nil {
		st.filter = s.NewFilter()
	}
	return ServeFrames(rw, "adb",
		func(req *rpcRequest) rpcReply {
			rep := s.handle(req, st)
			rep.Tag = req.Tag
			return rep
		},
		func(req *rpcRequest, msg string) rpcReply {
			return rpcReply{Tag: req.Tag, Err: msg}
		})
}

// handle dispatches one request.
func (s *Server) handle(req *rpcRequest, st *connState) (rep rpcReply) {
	switch {
	case req.Ping:
		rep.Pong = true
	case req.Reboot:
		if err := s.X.Reboot(); err != nil {
			rep.Err = err.Error()
		} else {
			rep.Pong = true
		}
	case req.Reset:
		restored, err := s.X.Reset()
		if err != nil {
			rep.Err = err.Error()
		} else {
			rep.Pong = true
			rep.Restored = restored
		}
	case req.Info:
		info, err := s.X.Info()
		if err != nil {
			rep.Err = err.Error()
		} else {
			rep.Info = &info
		}
	case req.Describe:
		info, err := s.X.Info()
		if err != nil {
			rep.Err = err.Error()
			return rep
		}
		rep.Describe = &DescribeReply{
			Info:  info,
			Calls: s.X.Target().Calls(),
			Seeds: s.Seeds,
		}
	case req.Export:
		cl, ok := s.X.(Cloner)
		if !ok {
			rep.Err = "adb: executor does not support checkpoints"
			break
		}
		blob, err := cl.ExportCheckpoint()
		if err != nil {
			rep.Err = err.Error()
		} else {
			rep.Checkpoint = blob
		}
	case req.Import != nil:
		cl, ok := s.X.(Cloner)
		if !ok {
			rep.Err = "adb: executor does not support checkpoints"
			break
		}
		if err := cl.ImportCheckpoint(req.Import.Blob); err != nil {
			rep.Err = err.Error()
		} else {
			rep.Imported = true
		}
	case req.Batch != nil:
		rep.Batch = s.execBatch(st, req.Batch)
	default:
		rep.Err = "adb: empty request"
	}
	return rep
}

// ServeTCP serves every connection accepted on ln until the listener is
// closed; see AcceptLoop.
func (s *Server) ServeTCP(ln net.Listener) error {
	return AcceptLoop(ln, s.Serve)
}

// Serve runs the device side of the protocol over rw with no seeds; see
// (*Server).Serve.
func Serve(rw io.ReadWriter, x Executor) error {
	return (&Server{X: x}).Serve(rw)
}

// ServeTCP serves x on ln with no seeds; see (*Server).ServeTCP.
func ServeTCP(ln net.Listener, x Executor) error {
	return (&Server{X: x}).ServeTCP(ln)
}
