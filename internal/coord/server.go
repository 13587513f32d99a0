package coord

import (
	"io"
	"net"

	"droidfuzz/internal/adb"
)

// The coordinator serves its protocol on the adb link layer: the same
// gob serve loop and accept loop as the broker protocol, lock-step
// request/reply. Coordinator RPCs happen per epoch (hundreds of
// milliseconds to seconds apart), not per execution, so clients keep one
// request in flight per connection.

// Server serves a Coordinator over gob streams.
type Server struct {
	C *Coordinator
}

// Serve runs the coordinator side of the protocol over rw until the stream
// ends; see adb.ServeFrames for the error and panic contract. Requests go
// through Coordinator.Handle — the layer that dedups retried requests —
// whose Go errors travel as the reply's Err string (the client rehydrates
// them as *adb.RemoteError).
func (s *Server) Serve(rw io.ReadWriter) error {
	return adb.ServeFrames(rw, "coord", s.handle,
		func(_ *adb.CoordRequest, msg string) adb.CoordReply {
			return adb.CoordReply{Err: msg}
		})
}

func (s *Server) handle(req *adb.CoordRequest) adb.CoordReply {
	return s.C.Handle(*req)
}

// ServeTCP serves every host connection accepted on ln until the listener
// closes; see adb.AcceptLoop.
func (s *Server) ServeTCP(ln net.Listener) error {
	return adb.AcceptLoop(ln, s.Serve)
}
