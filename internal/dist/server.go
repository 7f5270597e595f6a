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
// decoded through the method table and returns the result message (nil
// for an empty result). The node Agent is a plain function of its state
// and the params: rpcServer.execute serializes it and answers retries,
// so a handler holds no lock and no memo.
type rpcHandler interface {
	handle(method string, params message) (message, error)
	// newSession drops the previous coordinator session's state.
	newSession()
	// memoHit counts one keyed request answered from the memo.
	memoHit(method string)
}

// rpcServer is the connection engine behind the Agent: per-connection
// reader/worker pairs, connection tracking, graceful drain, and the one
// exactly-once rule of the dist wire (execute). The Agent embeds one and
// plugs in its handler.
type rpcServer struct {
	handler rpcHandler
	// name labels shutdown errors (the agent's node).
	name string

	// tm instruments served requests and the drain state; nil (the
	// default) records nothing. Set via EnableTelemetry before serving.
	tm *serverMetrics

	// reqMu runs one request at a time across connections — handler
	// state is single-threaded, and a coordinator's parallelism is across
	// servers — and guards session and memo. session is the nonce of the
	// latest hello that carried one; memo holds each slot's latest
	// successfully answered key and its answer (see keyed).
	reqMu   sync.Mutex
	session uint64
	memo    map[memoSlot]memoEntry

	// connMu guards the drain state and the live-connection set for
	// graceful shutdown; connWG counts connections being served.
	connMu   sync.Mutex
	conns    map[io.Closer]struct{}
	connWG   sync.WaitGroup
	draining bool
}

type memoEntry struct {
	key    uint64
	result message
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
// responses. Requests from all connections execute one at a time
// (execute). A payload that
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
		// A fresh body per request: the decoded request may alias it.
		payload, err := readPayload(br, freshBody)
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

// serveRequests is the per-connection worker: it decodes and executes
// queued requests in order and writes each response, rendered into a
// pooled frame that goes back to the pool once Write has returned. On a
// write failure it closes the connection so the reader unblocks, and
// parks the error for the reader to return.
func (s *rpcServer) serveRequests(conn io.ReadWriteCloser, reqs <-chan connReq, errc chan<- error) {
	dec := &reqDecoder{names: make(nameTable)}
	for cr := range reqs {
		fp := getFrame()
		*fp = s.respond(*fp, cr, dec)
		err := sendFrame(conn, *fp)
		putFrame(fp)
		if err != nil {
			errc <- err
			conn.Close()
			return
		}
	}
}

// respond decodes one request's params through the connection's dec,
// executes it and appends the response payload to frame. Decode and
// handler errors become error responses.
func (s *rpcServer) respond(frame []byte, cr connReq, dec *reqDecoder) []byte {
	var result message
	params, err := decodeParams(cr.method, cr.body, dec)
	if err == nil {
		result, err = s.execute(cr.method, params)
	}
	s.tm.noteRequest(cr.method, err != nil)
	if err != nil {
		return appendResponse(frame, cr.id, err.Error(), nil)
	}
	return appendResponse(frame, cr.id, "", result)
}

// execute runs one decoded request under the request lock, exactly once
// per key. A hello with a new session nonce clears the memo and the
// handler's old session; its answer says whether the server already held
// the session (HelloResult.Resumed). A keyed request (wire.go) whose key
// is its slot's latest answered key is a retry — after a timeout, a
// reconnect, or on a second connection while the original ran — and gets
// the remembered answer; checking under the lock the original holds is
// what makes that last case wait for it. A shadow_close retires its slot.
func (s *rpcServer) execute(method string, params message) (message, error) {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	switch p := params.(type) {
	case *HelloParams:
		resumed := p.Session != 0 && p.Session == s.session
		if p.Session != 0 && !resumed {
			s.session = p.Session
			clear(s.memo)
			s.handler.newSession()
		}
		result, err := s.handler.handle(method, params)
		if hr, ok := result.(*HelloResult); ok {
			hr.Resumed = resumed
		}
		return result, err
	case *ShadowCloseParams:
		delete(s.memo, shadowSlot(p.ShadowID))
	}
	k, ok := params.(keyed)
	if !ok {
		return s.handler.handle(method, params)
	}
	slot, key := k.memo()
	if e, hit := s.memo[slot]; hit && key != 0 && e.key == key {
		s.handler.memoHit(method)
		return e.result, nil
	}
	result, err := s.handler.handle(method, params)
	if err == nil && key != 0 {
		if s.memo == nil {
			s.memo = make(map[memoSlot]memoEntry)
		}
		s.memo[slot] = memoEntry{key: key, result: result}
	}
	return result, err
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
