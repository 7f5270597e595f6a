package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Per-node health states the coordinator reports.
const (
	// HealthHealthy: the node is served by its dialed agent.
	HealthHealthy = "healthy"
	// HealthDegraded: the agent's reconnect budget ran out and the
	// coordinator transparently swapped in an in-process replacement —
	// the mixed-fleet fallback. Findings are unaffected (the replacement
	// runs the identical deterministic pipeline); only locality changed.
	HealthDegraded = "degraded"
	// HealthFailed: the reconnect budget ran out and fallback was
	// disabled, so calls to this node error out.
	HealthFailed = "failed"
)

// NodeHealth is one node's fault-tolerance record over the coordinator's
// lifetime. It lives beside the findings, never inside them: snapshots
// stay comparable between an all-healthy run and one that limped through
// faults — which is exactly what the chaos parity tests assert.
type NodeHealth struct {
	// State is one of the Health* constants.
	State string
	// Reconnects counts successful re-dial + re-handshake cycles.
	Reconnects int
	// Faults counts connection faults observed (broken streams, call
	// timeouts) that triggered recovery.
	Faults int
	// LastFault describes the most recent fault, "" if none.
	LastFault string
}

// RetryPolicy tunes the coordinator's fault handling. The zero value
// means: no per-call deadline, 3 reconnect attempts with 25ms–1s
// backoff, degraded fallback enabled, jitter seeded from 1.
type RetryPolicy struct {
	// RPCTimeout bounds each call from send to response (0 = none).
	RPCTimeout time.Duration
	// MaxReconnects is the re-dial budget per recovery episode before
	// the node degrades (or fails, under NoFallback). 0 means 3.
	MaxReconnects int
	// BackoffBase and BackoffCap shape the capped exponential backoff
	// between reconnect attempts (0 = 25ms base, 1s cap).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// NoFallback disables the degraded in-process replacement: when the
	// reconnect budget runs out the node is marked failed and calls
	// error instead.
	NoFallback bool
	// Seed feeds the deterministic backoff jitter (0 means 1), so test
	// runs schedule identically.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxReconnects <= 0 {
		p.MaxReconnects = 3
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 25 * time.Millisecond
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// backoffDelay returns the pause before reconnect attempt n (1-based):
// capped exponential with deterministic jitter in [d/2, d), so a fleet
// of recovering connections doesn't stampede the same instant while the
// schedule stays reproducible under a fixed seed.
func backoffDelay(attempt int, base, cap time.Duration, rng *rand.Rand) time.Duration {
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// redial runs try — one dial through hello and the caller's checks —
// under the one attempt rule every connection the coordinator owns
// follows: an initial dial goes out at once, and after it (or from the
// start, for a recovery) come at most MaxReconnects re-dials, re-dial n
// after backoffDelay(n). An error fatal reports ends the sequence at
// once; nil fatal retries everything. Closing stop ends it before the
// next dial or during a backoff pause (errStopped); a nil stop never
// does. It returns try's last error.
func (p RetryPolicy) redial(rng *rand.Rand, initial bool, stop <-chan struct{}, try func() error, fatal func(error) bool) error {
	n := 1
	if initial {
		n = 0
	}
	err := errors.New("dist: reconnect budget exhausted")
	for ; n <= p.MaxReconnects; n++ {
		if n > 0 {
			pause := time.NewTimer(backoffDelay(n, p.BackoffBase, p.BackoffCap, rng))
			select {
			case <-pause.C:
			case <-stop:
				pause.Stop()
			}
		}
		select {
		case <-stop:
			return errStopped
		default:
		}
		if err = try(); err == nil || fatal != nil && fatal(err) {
			break
		}
	}
	return err
}

// handshake is the one dial sequence: dial, a client under the policy's
// call deadline and the session nonce, and the hello carrying props. A
// dial failure is errDial.
func (p RetryPolicy) handshake(d Dialer, session uint64, props []string) (*Client, HelloResult, error) {
	conn, err := d.Dial()
	if err != nil {
		return nil, HelloResult{}, fmt.Errorf("%w: %v", errDial, err)
	}
	cl := NewClient(conn)
	cl.Timeout = p.RPCTimeout
	cl.Session = session
	cl.Properties = props
	hello, err := cl.Handshake()
	if err != nil {
		cl.Close()
		return nil, HelloResult{}, err
	}
	return cl, hello, nil
}

// errDial classifies Dial-level failures for the retry decision.
var errDial = errors.New("dist: dial failed")

// errStopped reports a redial sequence its owner stopped.
var errStopped = errors.New("dist: redial stopped")

// identityErr reports a failure no re-dial can fix: the far end answered,
// and refused — a protocol version it does not speak, another topology —
// rather than a dial or the stream failing.
func identityErr(err error) bool {
	return !isConnFault(err) && !errors.Is(err, errDial)
}

// isConnFault reports whether err is a transport-level failure — a
// poisoned stream or an expired deadline — as opposed to an application
// error the agent deliberately returned. Only conn faults are worth a
// reconnect-and-retry; application errors would just recur.
func isConnFault(err error) bool {
	return errors.Is(err, ErrClientBroken) || errors.Is(err, ErrCallTimeout)
}
