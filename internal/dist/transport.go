package dist

import (
	"io"
	"net"
	"time"
)

// Dialer produces a wire-protocol connection to one agent. Two
// implementations ship: Loopback pairs the coordinator with an
// in-process Agent over net.Pipe (deterministic, no sockets — the
// testing transport), and TCPDialer crosses a real process boundary.
// The coordinator is transport-agnostic; everything above Dial sees
// only an io.ReadWriteCloser.
//
// Clients pipeline requests, so the returned connection must
// tolerate one goroutine writing frames while another reads responses
// (any net.Conn does; Read and Write are never called concurrently
// with themselves, only with each other).
type Dialer interface {
	Dial() (io.ReadWriteCloser, error)
}

// Loopback connects to an in-process agent through a synchronous pipe.
type Loopback struct {
	Agent *Agent
}

// Dial implements Dialer: the agent serves the far end of a net.Pipe.
func (l Loopback) Dial() (io.ReadWriteCloser, error) {
	client, server := net.Pipe()
	go l.Agent.ServeConn(server) //nolint:errcheck // ends with the pipe
	return client, nil
}

// TCPDialer connects to a dicenode agent listening on Addr.
type TCPDialer struct {
	Addr string
	// Timeout bounds the whole dial, including retries (0 = 5s).
	Timeout time.Duration
}

// Dial implements Dialer. Agents are commonly started in the same
// breath as the coordinator (walkthroughs, CI), so a refused or
// not-yet-listening address is retried until Timeout rather than
// failing the round on a race the operator can't see.
func (d TCPDialer) Dial() (io.ReadWriteCloser, error) {
	timeout := d.Timeout
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	deadline := time.Now().Add(timeout)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			remaining = time.Millisecond
		}
		conn, err := net.DialTimeout("tcp", d.Addr, remaining)
		if err == nil {
			return conn, nil
		}
		if time.Now().Add(100 * time.Millisecond).After(deadline) {
			return nil, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}
