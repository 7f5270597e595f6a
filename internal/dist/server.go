package dist

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// rpcHandler executes one request whose params the server has already
// decoded through the method table (nil for a parameterless method) and
// returns the result message (nil for an empty result). Implementations
// (the node Agent, the exploration Replica) serialize their own state —
// the server machinery decodes and frames.
type rpcHandler interface {
	handle(method string, params message) (message, error)
}

// rpcServer is the shared connection engine behind every wire-protocol
// server: per-connection reader/worker pairs, connection tracking and
// graceful drain. The Agent and the Replica both embed one and plug in
// their handler.
type rpcServer struct {
	handler rpcHandler
	// name labels shutdown errors (the agent's node, "replica"); role is
	// how the hello's version refusal names this side ("agent", "replica").
	name, role string

	// tm instruments served requests and the drain state; nil (the
	// default) records nothing. Set via EnableTelemetry before serving.
	tm *serverMetrics

	// connMu guards the drain state and the live-connection set for
	// graceful shutdown; connWG counts connections being served.
	connMu   sync.Mutex
	conns    map[io.Closer]struct{}
	connWG   sync.WaitGroup
	draining bool
}

// connReq is one decoded request envelope queued for the per-connection
// worker.
type connReq struct {
	id     uint64
	method string
	body   []byte
}

// ServeConn answers requests on one connection until it closes. The
// reader goroutine (this one) drains frames eagerly so a pipelining
// client never blocks on its sends; decoded requests queue to a
// per-connection worker that executes them in arrival order and writes
// responses. Concurrency across connections is the handler's business
// (the Agent serializes on reqMu; so does the Replica). A payload that
// is not a request envelope — a JSON document from a pre-binary build,
// say — ends the connection with an errFrame-wrapped error.
//
// The connection closes only after the worker has answered every
// request already read: a clean client EOF — or a draining Shutdown —
// never cuts a response frame in half.
func (s *rpcServer) ServeConn(conn io.ReadWriteCloser) error {
	if err := s.trackConn(conn); err != nil {
		conn.Close()
		return err
	}
	defer s.untrackConn(conn)
	reqs := make(chan connReq, 256)
	errc := make(chan error, 1)
	workerDone := make(chan struct{})
	go func() {
		s.serveRequests(conn, reqs, errc)
		close(workerDone)
	}()
	err := s.readRequests(conn, reqs, errc)
	close(reqs)
	<-workerDone // pending responses flushed before the close below
	conn.Close()
	return err
}

// readRequests drains frames into the worker queue until the connection
// errors, the worker reports a write failure, or the server starts
// draining (checked between frames; Shutdown force-closes connections
// blocked mid-read once the grace period expires).
func (s *rpcServer) readRequests(conn io.ReadWriteCloser, reqs chan<- connReq, errc <-chan error) error {
	br := bufio.NewReaderSize(conn, frameReadBuffer)
	for !s.isDraining() {
		payload, err := readPayload(br)
		if err != nil {
			select {
			case werr := <-errc:
				return werr
			default:
			}
			if err == io.EOF {
				return nil
			}
			return err
		}
		id, method, body, err := parseRequest(payload)
		if err != nil {
			return err
		}
		select {
		case reqs <- connReq{id: id, method: method, body: body}:
		case werr := <-errc:
			return werr
		}
	}
	return nil
}

// trackConn registers a connection for drain accounting; a draining
// server refuses new connections.
func (s *rpcServer) trackConn(conn io.Closer) error {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.draining {
		return fmt.Errorf("dist: %s is shutting down", s.name)
	}
	if s.conns == nil {
		s.conns = make(map[io.Closer]struct{})
	}
	s.conns[conn] = struct{}{}
	s.connWG.Add(1)
	return nil
}

func (s *rpcServer) untrackConn(conn io.Closer) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
	s.connWG.Done()
}

func (s *rpcServer) isDraining() bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.draining
}

// Draining reports whether Shutdown has started. The telemetry readiness
// check (/healthz) uses it to flip a draining server to 503 while its
// in-flight requests finish.
func (s *rpcServer) Draining() bool { return s.isDraining() }

// Shutdown drains the server gracefully: new connections are refused,
// existing connections stop picking up frames, and every request
// already read is answered before its connection closes. Shutdown
// blocks until all connections have drained, or until grace expires —
// then it force-closes the stragglers (unblocking readers parked in a
// frame read) and waits for them to unwind. The caller is responsible
// for closing any listener first so no new connections race in.
func (s *rpcServer) Shutdown(grace time.Duration) {
	s.connMu.Lock()
	s.draining = true
	s.connMu.Unlock()
	s.tm.setDraining(true)
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return
	case <-time.After(grace):
	}
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	<-done
}

// serveRequests is the per-connection worker: it executes queued
// requests in order and writes each response. On a write failure it
// closes the connection so the reader unblocks, and parks the error for
// the reader to return.
func (s *rpcServer) serveRequests(conn io.ReadWriteCloser, reqs <-chan connReq, errc chan<- error) {
	for cr := range reqs {
		if err := sendFrame(conn, s.respond(cr)); err != nil {
			errc <- err
			conn.Close()
			return
		}
	}
}

// respond decodes one request's params, executes it and renders the
// response frame. Decode and handler errors become error responses.
func (s *rpcServer) respond(cr connReq) []byte {
	var result message
	params, err := decodeParams(cr.method, cr.body, s.role)
	if err == nil {
		result, err = s.handler.handle(cr.method, params)
	}
	s.tm.noteRequest(cr.method, err != nil)
	if err != nil {
		return appendResponse(newFrame(), cr.id, err.Error(), nil)
	}
	return appendResponse(newFrame(), cr.id, "", result)
}

// ListenAndServe accepts connections until the listener closes.
func (s *rpcServer) ListenAndServe(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.ServeConn(conn) //nolint:errcheck // per-conn errors end that conn only
	}
}
