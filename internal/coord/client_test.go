package coord

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"droidfuzz/internal/adb"
)

// TestClientReconnectsThroughTransportFailures: the first dials fail, the
// client backs off (full jitter, observed through the sleep seam) and
// eventually completes the call on a healthy stream.
func TestClientReconnectsThroughTransportFailures(t *testing.T) {
	coord, _ := newTestCoordinator(t, Campaign{Models: []string{"A1"}, Shards: 1, Iters: 1}, Options{})
	srv := &Server{C: coord}
	fails := 2
	cl := &Client{addr: "flaky", opts: ClientOptions{
		Dialer: func() (io.ReadWriteCloser, error) {
			if fails > 0 {
				fails--
				return nil, errors.New("link down")
			}
			hostEnd, coordEnd := net.Pipe()
			go srv.Serve(coordEnd)
			return hostEnd, nil
		},
	}}
	var slept []time.Duration
	cl.sleep = func(d time.Duration) { slept = append(slept, d) }

	reg, err := cl.Register("flaky-host")
	if err != nil {
		t.Fatalf("register through flaky link: %v", err)
	}
	if reg.HostID == "" {
		t.Fatal("empty host ID")
	}
	if len(slept) != 2 {
		t.Fatalf("client slept %d times, want 2 (one per failed dial)", len(slept))
	}
	for i, d := range slept {
		if d < 0 || d > 100*time.Millisecond {
			t.Fatalf("sleep %d = %v outside the jitter envelope", i, d)
		}
	}
}

// TestClientSurfacesRemoteErrorWithoutRetry: a coordinator-side rejection
// is not a transport failure — the stream stays up and the client must not
// burn retry attempts on it.
func TestClientSurfacesRemoteErrorWithoutRetry(t *testing.T) {
	coord, _ := newTestCoordinator(t, Campaign{Models: []string{"A1"}, Shards: 1, Iters: 1}, Options{})
	srv := &Server{C: coord}
	dials := 0
	cl, err := DialClient("pipe", ClientOptions{Dialer: func() (io.ReadWriteCloser, error) {
		dials++
		hostEnd, coordEnd := net.Pipe()
		go srv.Serve(coordEnd)
		return hostEnd, nil
	}})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	_, err = cl.Heartbeat("h999", 0)
	var re *adb.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want *adb.RemoteError for unknown host, got %v", err)
	}
	if errors.Is(err, adb.ErrTransport) {
		t.Fatal("coordinator rejection misclassified as transport failure")
	}
	if dials != 1 {
		t.Fatalf("client redialed %d times on an app-level error", dials)
	}
	// The stream is still healthy: a valid call on the same client works.
	reg, err := cl.Register("still-alive")
	if err != nil || reg.HostID == "" {
		t.Fatalf("call after RemoteError: %+v, %v", reg, err)
	}
	if dials != 1 {
		t.Fatalf("healthy stream was dropped (dials=%d)", dials)
	}
}

// TestServerRejectsEmptyAndPanicFrames: protocol garbage gets an error
// reply, not a dead coordinator.
func TestServerRejectsGarbage(t *testing.T) {
	coord, _ := newTestCoordinator(t, Campaign{Models: []string{"A1"}, Shards: 1, Iters: 1}, Options{})
	srv := &Server{C: coord}
	rep := srv.handle(&adb.CoordRequest{})
	if rep.Err == "" {
		t.Fatal("empty request accepted")
	}
	// A second request on the same coordinator still works.
	rep = srv.handle(&adb.CoordRequest{Register: &adb.CoordRegister{Name: "ok"}})
	if rep.Err != "" || rep.Registered == nil {
		t.Fatalf("register after garbage: %+v", rep)
	}
}
