package adb

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"droidfuzz/internal/dsl"
)

// ResilientOptions tune the reconnecting remote executor. Dial and call
// timeouts and the redial backoff are fixed link constants (link.go).
type ResilientOptions struct {
	// Window bounds in-flight requests per connection (default
	// adb.DefaultWindow).
	Window int
}

// resilientAttempts is how many reconnect-and-retry cycles one operation
// performs before giving up.
const resilientAttempts = 2

// Resilient is a reconnecting remote Executor over the ADB-stand-in
// transport. Transport failures trigger a bounded redial-with-backoff and
// one retry of the failed operation; when the broker stays unreachable the
// client enters a cooldown during which every operation fails immediately,
// so a dead broker degrades its engine (surfacing as ExecErrors) at
// near-zero per-iteration cost instead of stalling or killing the fleet.
// Reconnections re-run the identity handshake and refuse a broker whose
// target fingerprint changed.
//
// Resilient paces retries with the wall clock, so remote campaigns are not
// bit-replayable under injected faults; see DESIGN.md.
type Resilient struct {
	addr   string
	window int
	frame  int // programs per batch frame on every dialed Conn; tests shrink it

	mu        sync.Mutex
	conn      *Conn
	target    *dsl.Target
	info      Info
	seeds     []string
	fatal     error
	downUntil time.Time
	backoff   Backoff
	// wire accumulates the uplink accounting of connections already
	// retired; the live connection's share is added on read.
	wire WireStats
	// now is the cooldown clock. Tests inject a fake one (and a seeded
	// backoff source) to exercise the cooldown envelope without sleeping.
	now func() time.Time
}

var (
	_ Executor      = (*Resilient)(nil)
	_ BatchExecutor = (*Resilient)(nil)
	_ Cloner        = (*Resilient)(nil)
)

// DialResilient connects to a broker daemon at addr and performs the
// attach handshake, returning a reconnecting Executor bound to the
// device's call-description target.
func DialResilient(addr string, opts ResilientOptions) (*Resilient, error) {
	r := &Resilient{
		addr: addr, window: opts.Window, frame: batchFrame,
		now: time.Now, //droidvet:nondet wall-clock backoff clock
	}
	conn, err := r.dial()
	if err != nil {
		return nil, err
	}
	rep, err := conn.Handshake()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("adb: attach %s: %w", addr, err)
	}
	r.conn = conn
	r.target = conn.Target()
	r.info = rep.Info
	r.seeds = rep.Seeds
	return r, nil
}

// dial opens and configures one connection (no handshake).
func (r *Resilient) dial() (*Conn, error) {
	conn, err := DialTCP(r.addr)
	if err != nil {
		return nil, err
	}
	conn.SetCallTimeout(CallTimeout)
	conn.SetWindow(r.window)
	conn.frame = r.frame
	return conn, nil
}

// Addr returns the broker address the client reconnects to.
func (r *Resilient) Addr() string { return r.addr }

// Seeds returns the probing-pass seed programs (DSL text) delivered by the
// attach handshake.
func (r *Resilient) Seeds() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seeds
}

// Target implements Executor with the target bound at attach time.
func (r *Resilient) Target() *dsl.Target {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.target
}

// Close drops the current connection; a later operation redials.
func (r *Resilient) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conn != nil {
		r.wire.Add(r.conn.WireStats())
		r.conn.Close()
		r.conn = nil
	}
	return nil
}

// WireStats returns the uplink accounting accumulated across every
// connection this client has used (summary-mode batches only).
func (r *Resilient) WireStats() WireStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.wire
	if r.conn != nil {
		w.Add(r.conn.WireStats())
	}
	return w
}

// get returns a live connection, redialing if needed. During cooldown it
// fails immediately so operations against a dead broker stay cheap.
func (r *Resilient) get() (*Conn, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fatal != nil {
		return nil, r.fatal
	}
	if r.conn != nil {
		return r.conn, nil
	}
	// Reconnect backoff is wall-clock by nature: it gates transport
	// redials, never a fuzzing decision, and replay runs in-process
	// without a Resilient client at all.
	if now := r.now(); now.Before(r.downUntil) {
		return nil, fmt.Errorf("%w: %s down, retry in %v",
			ErrTransport, r.addr, r.downUntil.Sub(now).Round(time.Millisecond))
	}
	conn, err := r.dial()
	if err != nil {
		r.noteFailureLocked()
		return nil, err
	}
	rep, err := conn.Handshake()
	if err != nil {
		conn.Close()
		r.noteFailureLocked()
		return nil, fmt.Errorf("adb: reattach %s: %w", r.addr, err)
	}
	if rep.Info.TargetHash != r.info.TargetHash {
		conn.Close()
		r.fatal = fmt.Errorf("adb: reattach %s: broker target changed (%#x -> %#x)",
			r.addr, r.info.TargetHash, rep.Info.TargetHash)
		return nil, r.fatal
	}
	r.conn = conn
	r.info = rep.Info
	r.backoff.Reset()
	r.downUntil = time.Time{}
	return conn, nil
}

// noteFailureLocked arms the reconnect cooldown with the shared backoff
// delay: operations fail fast until it expires.
func (r *Resilient) noteFailureLocked() {
	r.downUntil = r.now().Add(r.backoff.Fail())
}

// drop discards a connection after a transport failure (unless a newer
// connection already replaced it), folding its uplink accounting into the
// client's running totals.
func (r *Resilient) drop(c *Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conn == c {
		r.wire.Add(c.WireStats())
		r.conn.Close()
		r.conn = nil
	}
}

// do runs op against a live connection, redialing and retrying on
// transport failures up to resilientAttempts times. Application-level errors
// (*RemoteError) return immediately: the stream is healthy and the remote
// broker rejected the request itself.
func (r *Resilient) do(op func(c *Conn) error) error {
	var err error
	for attempt := 0; attempt <= resilientAttempts; attempt++ {
		var c *Conn
		if c, err = r.get(); err != nil {
			if !errors.Is(err, ErrTransport) {
				return err // fatal (target changed) or handshake rejection
			}
			continue
		}
		if err = op(c); err == nil || !errors.Is(err, ErrTransport) {
			return err
		}
		r.drop(c)
	}
	return err
}

// Exec implements Executor with reconnect-and-retry. The pooled result is
// owned by the caller, who must Release it.
func (r *Resilient) Exec(req ExecRequest) (res *ExecResult, err error) {
	err = r.do(func(c *Conn) error {
		res, err = c.Exec(req)
		return err
	})
	return res, err
}

// ExecProg implements Executor: the program is serialized once, before the
// retry loop, and the same text crosses the wire on every attempt. The
// pooled result is owned by the caller, who must Release it.
func (r *Resilient) ExecProg(p *dsl.Prog) (*ExecResult, error) {
	return r.Exec(ExecRequest{ProgText: p.String()})
}

// ExecBatch implements BatchExecutor with tail retry: the programs are
// serialized once by the caller, and after a mid-batch transport failure
// only the unacknowledged tail is resubmitted on the fresh connection —
// acknowledged results are never re-executed. The returned slice aligns
// index-for-index with req.Progs up to where execution got; nil entries
// mark broker-rejected programs. Non-nil results are pooled and owned by
// the caller (Release each when done).
func (r *Resilient) ExecBatch(req ExecBatchRequest) ([]*ExecResult, error) {
	out := make([]*ExecResult, 0, len(req.Progs))
	err := r.do(func(c *Conn) error {
		res, err := c.ExecBatch(ExecBatchRequest{Progs: req.Progs[len(out):], Summary: req.Summary})
		out = append(out, res...)
		return err
	})
	return out, err
}

// Ping implements Executor.
func (r *Resilient) Ping() error {
	return r.do(func(c *Conn) error { return c.Ping() })
}

// Reboot implements Executor.
func (r *Resilient) Reboot() error {
	return r.do(func(c *Conn) error { return c.Reboot() })
}

// Reset implements Executor. A reconnect mid-Reset is harmless: the worst
// case is the device resetting twice, which is idempotent.
func (r *Resilient) Reset() (bool, error) {
	var restored bool
	err := r.do(func(c *Conn) error {
		var e error
		restored, e = c.Reset()
		return e
	})
	return restored, err
}

// ExportCheckpoint implements Cloner with reconnect-and-retry; the export
// is read-only on the device, so retrying after a dropped link is safe.
func (r *Resilient) ExportCheckpoint() ([]byte, error) {
	var blob []byte
	err := r.do(func(c *Conn) error {
		var e error
		blob, e = c.ExportCheckpoint()
		return e
	})
	return blob, err
}

// ImportCheckpoint implements Cloner with reconnect-and-retry; importing
// the same blob twice is idempotent, so a retry after an ambiguous
// transport failure cannot corrupt device state.
func (r *Resilient) ImportCheckpoint(blob []byte) error {
	return r.do(func(c *Conn) error {
		return c.ImportCheckpoint(blob)
	})
}

// Info implements Executor with a live round trip; on failure it returns
// the last-known identity (ModelID and TargetHash stay valid — they are
// pinned by the handshake) along with the error.
func (r *Resilient) Info() (Info, error) {
	var info Info
	err := r.do(func(c *Conn) error {
		var e error
		info, e = c.Info()
		return e
	})
	if err != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.info, err
	}
	r.mu.Lock()
	r.info = info
	r.mu.Unlock()
	return info, nil
}
