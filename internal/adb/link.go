package adb

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"
)

// The link layer both wire protocols share: the broker protocol
// (transport.go) and the coordinator protocol (coordwire.go, served by
// internal/coord) run the same serve loop and accept loop, and their
// reconnecting clients — Resilient and coord.Client — pace redials with
// the same backoff.

// Link tuning. One value serves every deployment, so none is configurable.
const (
	// DialTimeout bounds one connection attempt of a reconnecting client.
	DialTimeout = 2 * time.Second
	// CallTimeout bounds one round trip of a reconnecting client.
	CallTimeout = 10 * time.Second

	backoffBase = 50 * time.Millisecond
	backoffMax  = 2 * time.Second
	// maxFailStreak caps the failure streak; the envelope saturates at
	// backoffMax long before, so the cap only keeps the shift in range.
	maxFailStreak = 30
)

// Backoff paces a reconnecting client's redials: each consecutive failure
// doubles an exponential envelope from 50ms up to 2s, and the delay is a
// full-jitter draw in [0, envelope]. The envelope bounds how hard a dead
// peer is hammered; the jitter spreads N clients that lost the same peer at
// the same moment (a coordinator or broker restart) across the whole window
// instead of letting them thunder back in lockstep. Full jitter (over the
// equal-jitter base/2+rand variant) desynchronizes a herd fastest, and a
// zero draw is harmless — the next failure re-arms with a doubled envelope.
//
// The zero value is ready to use. A Backoff is not safe for concurrent use;
// each client guards its own with its mutex.
type Backoff struct {
	streak int
	rng    *rand.Rand // nil until first use; tests inject a seeded one
}

// Fail returns the delay before the next redial and lengthens the streak.
func (b *Backoff) Fail() time.Duration {
	d := time.Duration(b.Rand().Int63n(int64(envelope(b.streak)) + 1))
	if b.streak < maxFailStreak {
		b.streak++
	}
	return d
}

// Reset clears the streak after a successful exchange.
func (b *Backoff) Reset() { b.streak = 0 }

// Rand returns the client's jitter source, seeding it from the wall clock
// on first use so every client draws an independent schedule. Redial
// pacing gates transport reconnects, never a fuzzing decision, and replay
// runs in-process without a reconnecting client at all.
func (b *Backoff) Rand() *rand.Rand {
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(time.Now().UnixNano())) //droidvet:nondet per-client jitter seed
	}
	return b.rng
}

// envelope is the exponential cap for a failure streak:
// min(backoffBase<<streak, backoffMax), also when the shift overflows.
func envelope(streak int) time.Duration {
	d := backoffBase << streak
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	return d
}

// ServeFrames runs the serving end of a lock-step gob protocol over rw
// until the stream ends: decode a request, answer it with handle, encode
// the reply. It returns nil on a clean EOF and an ErrTransport-wrapped
// error on garbage, truncated frames, or a mid-stream hangup. It never
// panics: a decoder panic on hostile input becomes an error, and a handler
// panic becomes the reply reject builds from its message, so one hostile
// frame cannot take the server down. Requests are answered serially in
// arrival order; name prefixes the error texts.
func ServeFrames[Req, Rep any](rw io.ReadWriter, name string, handle func(*Req) Rep, reject func(*Req, string) Rep) error {
	enc := gob.NewEncoder(rw)
	dec := gob.NewDecoder(rw)
	for {
		var req Req
		if err := decodeFrame(dec, &req); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) {
				return nil
			}
			return fmt.Errorf("%w: %s serve decode: %v", ErrTransport, name, err)
		}
		rep := answer(&req, name, handle, reject)
		if err := enc.Encode(&rep); err != nil {
			return fmt.Errorf("%w: %s serve encode: %v", ErrTransport, name, err)
		}
	}
}

// decodeFrame reads one frame, converting decoder panics on hostile input
// into errors (gob is supposed to error on corrupt streams, but a listener
// facing the network must not trust that for every byte sequence).
func decodeFrame[Req any](dec *gob.Decoder, req *Req) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("decode panic: %v", r)
		}
	}()
	return dec.Decode(req)
}

// answer runs one handler, converting its panic into a rejection reply.
func answer[Req, Rep any](req *Req, name string, handle func(*Req) Rep, reject func(*Req, string) Rep) (rep Rep) {
	defer func() {
		if r := recover(); r != nil {
			rep = reject(req, fmt.Sprintf("%s: request panic: %v", name, r))
		}
	}()
	return handle(req)
}

// AcceptLoop accepts connections on ln and serves each on its own
// goroutine until the listener is closed. Per-connection failures (a
// client feeding garbage, a dropped link) end that connection only; the
// listener keeps accepting.
func AcceptLoop(ln net.Listener, serve func(io.ReadWriter) error) error {
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer c.Close()
			_ = serve(c)
		}()
	}
}
