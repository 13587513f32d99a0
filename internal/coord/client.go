package coord

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"droidfuzz/internal/adb"
)

// ClientOptions tune the reconnecting coordinator client. The retry
// discipline mirrors adb.Resilient: typed errors split transport failures
// (redial and retry) from coordinator rejections (*adb.RemoteError, stream
// healthy, surface to the caller), redials pace themselves with the shared
// adb.Backoff, and the dial and call timeouts are the adb link constants.
type ClientOptions struct {
	// Dialer overrides how a stream is opened; nil dials TCP to Addr.
	// In-process fleets hand in net.Pipe factories.
	Dialer func() (io.ReadWriteCloser, error)
}

// clientAttempts is how many reconnect-and-retry cycles one call performs
// before giving up: coordinator calls are rare and losing one strands
// shard state, so the client tries harder than a per-exec device link.
const clientAttempts = 3

// Client is a host's reconnecting connection to the coordinator. Calls are
// lock-step — one in flight at a time, serialized by the mutex — which is
// all a per-epoch control channel needs.
type Client struct {
	addr string
	opts ClientOptions

	mu      sync.Mutex
	stream  io.ReadWriteCloser
	enc     *gob.Encoder
	dec     *gob.Decoder
	backoff adb.Backoff
	sleep   func(time.Duration) // time.Sleep; tests drop the pause
	// seq numbers every logical call; retries of one call resend the same
	// value, which is how the coordinator tells a retry after a lost reply
	// from a fresh request (and answers it from its reply cache).
	seq uint64
	// nonce is this client instance's random registration identity; a
	// retried Register with the same nonce gets the original host ID back.
	nonce uint64
}

// DialClient connects to a coordinator at addr (or via opts.Dialer).
func DialClient(addr string, opts ClientOptions) (*Client, error) {
	c := &Client{addr: addr, opts: opts, sleep: time.Sleep}
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// connectLocked opens a fresh stream. Callers hold c.mu (or own c
// exclusively, as DialClient does).
func (c *Client) connectLocked() error {
	var (
		rwc io.ReadWriteCloser
		err error
	)
	if c.opts.Dialer != nil {
		rwc, err = c.opts.Dialer()
	} else {
		rwc, err = net.DialTimeout("tcp", c.addr, adb.DialTimeout)
	}
	if err != nil {
		return fmt.Errorf("%w: coord dial %s: %v", adb.ErrTransport, c.addr, err)
	}
	c.stream = rwc
	c.enc = gob.NewEncoder(rwc)
	c.dec = gob.NewDecoder(rwc)
	return nil
}

// Close drops the connection; a later call redials.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked()
	return nil
}

func (c *Client) dropLocked() {
	if c.stream != nil {
		c.stream.Close()
		c.stream = nil
		c.enc, c.dec = nil, nil
	}
}

// call performs one lock-step round trip with reconnect-and-retry. A
// coordinator-side rejection comes back as *adb.RemoteError without a
// retry; stream failures redial after sleeping the backoff delay (the
// client has nothing better to do — unlike Resilient's non-blocking
// cooldown, a host cannot make progress without its coordinator).
func (c *Client) call(req adb.CoordRequest) (adb.CoordReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// One Seq per logical call, shared by every retry attempt: the
	// coordinator uses it to return the cached reply when the previous
	// attempt was processed but its reply got lost in the hangup.
	c.seq++
	req.Seq = c.seq
	var err error
	for attempt := 0; attempt <= clientAttempts; attempt++ {
		if attempt > 0 {
			c.sleep(c.backoff.Fail())
		}
		if c.stream == nil {
			if err = c.connectLocked(); err != nil {
				continue
			}
		}
		var rep adb.CoordReply
		if rep, err = c.roundTripLocked(req); err != nil {
			if errors.Is(err, adb.ErrTransport) {
				c.dropLocked()
				continue
			}
			return adb.CoordReply{}, err // coordinator rejection; stream healthy
		}
		c.backoff.Reset()
		return rep, nil
	}
	return adb.CoordReply{}, err
}

// nonceCounter disambiguates nonces of clients in one process: even if two
// clients' wall-clock-seeded jitter sources collided, the counter xor keeps
// their registration identities distinct.
var nonceCounter atomic.Uint64

// regNonce lazily draws this client's registration nonce (never 0, so the
// coordinator always dedups it).
func (c *Client) regNonce() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.nonce == 0 {
		c.nonce = c.backoff.Rand().Uint64() ^ nonceCounter.Add(1)
	}
	return c.nonce
}

// roundTripLocked encodes one request and decodes its reply, bounding the
// exchange with the call timeout when the stream supports deadlines.
func (c *Client) roundTripLocked(req adb.CoordRequest) (adb.CoordReply, error) {
	if nc, ok := c.stream.(net.Conn); ok {
		nc.SetDeadline(time.Now().Add(adb.CallTimeout)) //droidvet:nondet wall-clock io deadline
		defer nc.SetDeadline(time.Time{})
	}
	if err := c.enc.Encode(&req); err != nil {
		return adb.CoordReply{}, fmt.Errorf("%w: coord send: %v", adb.ErrTransport, err)
	}
	var rep adb.CoordReply
	if err := c.dec.Decode(&rep); err != nil {
		return adb.CoordReply{}, fmt.Errorf("%w: coord recv: %v", adb.ErrTransport, err)
	}
	if rep.Err != "" {
		return adb.CoordReply{}, &adb.RemoteError{Msg: rep.Err}
	}
	return rep, nil
}

// Register announces a host and returns its assigned identity.
func (c *Client) Register(name string) (*adb.CoordRegistered, error) {
	rep, err := c.call(adb.CoordRequest{Register: &adb.CoordRegister{Name: name, Nonce: c.regNonce()}})
	if err != nil {
		return nil, err
	}
	if rep.Registered == nil {
		return nil, &adb.RemoteError{Msg: "coord: empty register reply"}
	}
	return rep.Registered, nil
}

// Heartbeat refreshes liveness and reports cumulative executions.
func (c *Client) Heartbeat(hostID string, execs uint64) (*adb.CoordBeat, error) {
	rep, err := c.call(adb.CoordRequest{Heartbeat: &adb.CoordHeartbeat{HostID: hostID, Execs: execs}})
	if err != nil {
		return nil, err
	}
	if rep.Beat == nil {
		return nil, &adb.RemoteError{Msg: "coord: empty heartbeat reply"}
	}
	return rep.Beat, nil
}

// Lease requests the next shard (or Wait/Done).
func (c *Client) Lease(hostID string) (*adb.CoordShard, error) {
	rep, err := c.call(adb.CoordRequest{Lease: &adb.CoordLeaseRequest{HostID: hostID}})
	if err != nil {
		return nil, err
	}
	if rep.Shard == nil {
		return nil, &adb.RemoteError{Msg: "coord: empty lease reply"}
	}
	return rep.Shard, nil
}

// Progress reports in-flight shard state and exchanges federation deltas.
func (c *Client) Progress(p *adb.CoordProgress) (*adb.CoordAck, error) {
	rep, err := c.call(adb.CoordRequest{Progress: p})
	if err != nil {
		return nil, err
	}
	if rep.Ack == nil {
		return nil, &adb.RemoteError{Msg: "coord: empty progress reply"}
	}
	return rep.Ack, nil
}

// Complete marks a shard finished with its final uplink.
func (c *Client) Complete(q *adb.CoordComplete) (*adb.CoordAck, error) {
	rep, err := c.call(adb.CoordRequest{Complete: q})
	if err != nil {
		return nil, err
	}
	if rep.Ack == nil {
		return nil, &adb.RemoteError{Msg: "coord: empty complete reply"}
	}
	return rep.Ack, nil
}

// Sync performs a shard-free federation exchange.
func (c *Client) Sync(s *adb.CoordSync) (*adb.CoordAck, error) {
	rep, err := c.call(adb.CoordRequest{Sync: s})
	if err != nil {
		return nil, err
	}
	if rep.Ack == nil {
		return nil, &adb.RemoteError{Msg: "coord: empty sync reply"}
	}
	return rep.Ack, nil
}
