package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// rpcHandler executes one request in either codec. Implementations (the
// node Agent, the exploration Replica) serialize their own state — the
// server machinery only decodes envelopes and frames responses.
type rpcHandler interface {
	handle(method string, params json.RawMessage) (any, error)
	handleV2(method string, body []byte) (any, error)
}

// rpcServer is the shared connection engine behind every wire-protocol
// server: per-connection reader/worker pairs, codec-preserving responses,
// connection tracking and graceful drain. The Agent and the Replica both
// embed one and plug in their handler.
type rpcServer struct {
	handler rpcHandler
	// name labels shutdown errors (the agent's node, the replica's role).
	name string

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
// worker. Exactly one of jsonParams/v2Body is meaningful, per isV2.
type connReq struct {
	id         uint64
	method     string
	jsonParams json.RawMessage
	v2Body     []byte
	isV2       bool
}

// ServeConn answers requests on one connection until it closes. The
// reader goroutine (this one) drains frames eagerly so a pipelining
// client never blocks on its sends; decoded requests queue to a
// per-connection worker that executes them in arrival order and writes
// responses. Concurrency across connections is the handler's business
// (the Agent serializes on reqMu; so does the Replica).
//
// Each request is answered in the codec it arrived in: the first octet
// of a v2 payload is a kind byte that can never open a JSON document,
// so the codecs self-describe and the v1→v2 switch after hello needs no
// shared state between reader and worker.
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
		var cr connReq
		if len(payload) > 0 && payload[0] == frameRequestV2 {
			id, method, body, perr := parseRequestV2(payload)
			if perr != nil {
				return perr
			}
			cr = connReq{id: id, method: method, v2Body: body, isV2: true}
		} else {
			var req request
			if err := json.Unmarshal(payload, &req); err != nil {
				return fmt.Errorf("dist: garbled request: %w", err)
			}
			cr = connReq{id: req.ID, method: req.Method, jsonParams: req.Params}
		}
		select {
		case reqs <- cr:
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
		frame, err := s.respond(cr)
		if err == nil {
			err = sendFrame(conn, frame)
		}
		if err != nil {
			errc <- err
			conn.Close()
			return
		}
	}
}

// respond executes one request and renders the response frame in the
// request's codec. Handler errors become error responses; only encoding
// the envelope itself can fail.
func (s *rpcServer) respond(cr connReq) ([]byte, error) {
	var result any
	var herr error
	if cr.isV2 {
		result, herr = s.handler.handleV2(cr.method, cr.v2Body)
	} else {
		result, herr = s.handler.handle(cr.method, cr.jsonParams)
	}
	s.tm.noteRequest(cr.method, herr != nil)
	if cr.isV2 {
		if herr != nil {
			return appendResponseV2(newFrame(), cr.id, herr.Error(), nil), nil
		}
		var msg v2Message
		if result != nil {
			m, ok := result.(v2Message)
			if !ok {
				return appendResponseV2(newFrame(), cr.id, fmt.Sprintf("dist: %s result type %T has no v2 encoding", cr.method, result), nil), nil
			}
			msg = m
		}
		return appendResponseV2(newFrame(), cr.id, "", msg), nil
	}
	resp := response{ID: cr.id}
	if herr != nil {
		resp.Error = herr.Error()
	} else if result != nil {
		body, err := json.Marshal(result)
		if err != nil {
			resp.Error = fmt.Sprintf("dist: encode %s result: %v", cr.method, err)
		} else {
			resp.Result = body
		}
	}
	body, err := json.Marshal(resp)
	return append(newFrame(), body...), err
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
