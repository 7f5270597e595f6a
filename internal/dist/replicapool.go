package dist

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"

	"dice/internal/checkpoint"
)

// ErrReplicaPoolDown reports that the pool has no live replica and can
// never get one: every dialer has been consumed and every worker has
// died past its reconnect budget (or the pool was closed). The
// coordinator treats it as "explore on the agent instead", so a dead
// pool degrades a round's locality, never its findings.
var ErrReplicaPoolDown = errors.New("dist: replica pool has no live replicas")

// ReplicaPool drives a fleet of stateless exploration replicas behind
// one shared work queue. The coordinator submits per-target shards
// (checkpoint + seed + knobs, see ReplicaExploreParams); workers — one
// per dialed replica — pull shards off the queue in FIFO order, so a
// slow replica naturally takes fewer shards and a dead one takes none:
// the queue IS the work-stealing mechanism.
//
// The pool is elastic between Min workers and one per dialer. It starts
// Min workers at Connect and dials another replica whenever the backlog
// exceeds the live worker count. A worker whose replica dies past the
// reconnect budget re-enqueues its in-flight shard for the survivors and
// exits; the shard's key makes the re-run idempotent even when the lost
// replica had already answered.
type ReplicaPool struct {
	// Dialers produce connections to the replicas, one replica per
	// dialer. A dialer is consumed when its worker starts and never
	// redialed after that worker dies past its reconnect budget — a
	// replica that stays down stays out of the pool.
	Dialers []Dialer
	// Min is how many workers start at bind time; autoscaling adds more,
	// up to one per dialer. Zero means 1; values above len(Dialers) are
	// clamped to it.
	Min int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*replicaTask
	session uint64
	keys    *atomic.Uint64 // the coordinator's session sequence
	policy  RetryPolicy
	bound   bool
	closed  bool
	dead    bool // all dialers consumed, all workers gone
	started int  // dialers consumed (== workers ever started)
	active  int  // workers currently alive
	stats   ReplicaPoolStats
	tm      *Metrics // coordinator's telemetry bundle; nil-safe
	// stop is closed by Close: a worker dialing or backing off gives up.
	stop    chan struct{}
	workers sync.WaitGroup
}

// setMetrics attaches the coordinator's telemetry bundle. Connect calls
// it before bind so the initial workers are counted.
func (p *ReplicaPool) setMetrics(m *Metrics) {
	p.mu.Lock()
	p.tm = m
	p.mu.Unlock()
}

// ReplicaPoolStats is the pool's lifetime accounting, for tests and the
// operator-facing round summary.
type ReplicaPoolStats struct {
	// Started counts workers ever started (== dialers consumed).
	Started int
	// Active is the live worker count at the time of the Stats call.
	Active int
	// Scaled counts autoscale starts: workers beyond the initial Min
	// that a backlog demanded.
	Scaled int
	// Requeues counts shards re-enqueued after their replica died
	// mid-explore — each one is a successful work steal.
	Requeues int
	// Reconnects counts successful re-dial + re-handshake cycles on
	// replica connections.
	Reconnects int
	// Completed counts shards answered (successfully or with an
	// application error).
	Completed int
}

// replicaTask is one queued shard: the request, the checkpoint it ships,
// and the slot its waiter blocks on.
type replicaTask struct {
	params *ReplicaExploreParams
	snap   *checkpoint.Snapshot
	out    *ReplicaExploreResult
	err    error
	done   chan struct{}
}

func (t *replicaTask) finish(out *ReplicaExploreResult, err error) {
	t.out, t.err = out, err
	close(t.done)
}

// bind attaches the pool to a coordinator session: every worker
// handshakes with the coordinator's nonce (so the replicas' memos share
// the session lifecycle with the agents'), mints the keys of its page-complete
// resends from the coordinator's sequence, and recovers under the
// coordinator's retry policy. Connect calls it; a pool binds once.
func (p *ReplicaPool) bind(session uint64, keys *atomic.Uint64, policy RetryPolicy) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.bound {
		return fmt.Errorf("dist: replica pool already bound to a coordinator")
	}
	if len(p.Dialers) == 0 {
		return fmt.Errorf("dist: replica pool has no dialers")
	}
	p.cond = sync.NewCond(&p.mu)
	p.stop = make(chan struct{})
	p.session = session
	p.keys = keys
	p.policy = policy
	p.bound = true
	for i := 0; i < p.minWorkers(); i++ {
		p.startWorkerLocked()
	}
	return nil
}

func (p *ReplicaPool) minWorkers() int {
	n := p.Min
	if n <= 0 {
		n = 1
	}
	if n > len(p.Dialers) {
		n = len(p.Dialers)
	}
	return n
}

// startWorkerLocked consumes the next dialer and launches its worker.
// Callers hold p.mu and have checked started < len(p.Dialers).
func (p *ReplicaPool) startWorkerLocked() {
	idx := p.started
	p.started++
	p.active++
	p.stats.Started++
	p.tm.setPoolWorkers(p.active)
	p.workers.Add(1)
	go p.worker(idx)
}

// Stats returns a snapshot of the pool's accounting.
func (p *ReplicaPool) Stats() ReplicaPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Active = p.active
	return s
}

// submit queues one shard — the request and the checkpoint snapshot it
// explores — and blocks until a replica answers it (or the pool proves it
// never can). Safe for concurrent use — Round fans one goroutine out per
// target.
func (p *ReplicaPool) submit(params *ReplicaExploreParams, snap *checkpoint.Snapshot) (*ReplicaExploreResult, error) {
	t := &replicaTask{params: params, snap: snap, done: make(chan struct{})}
	p.mu.Lock()
	if !p.bound {
		p.mu.Unlock()
		return nil, fmt.Errorf("dist: replica pool not bound; pass it to Connect via WithReplicas")
	}
	if p.closed || p.dead {
		p.mu.Unlock()
		return nil, ErrReplicaPoolDown
	}
	p.queue = append(p.queue, t)
	p.tm.setPoolDepth(len(p.queue))
	// Autoscale: a backlog deeper than the live worker set means shards
	// are waiting while dialers sit idle — bring another replica in.
	if len(p.queue) > p.active && p.started < len(p.Dialers) {
		p.stats.Scaled++
		p.startWorkerLocked()
	}
	p.cond.Signal()
	p.mu.Unlock()
	<-t.done
	return t.out, t.err
}

// pop blocks until a shard is available (nil when the pool closes).
func (p *ReplicaPool) pop() *replicaTask {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 && !p.closed {
		p.cond.Wait()
	}
	if len(p.queue) == 0 {
		return nil
	}
	t := p.queue[0]
	p.queue = p.queue[1:]
	p.tm.setPoolDepth(len(p.queue))
	return t
}

// requeue steals a dying worker's in-flight shard back for the
// survivors; a closed pool has none, so the shard fails.
func (p *ReplicaPool) requeue(t *replicaTask) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		t.finish(nil, ErrReplicaPoolDown)
		return
	}
	p.stats.Requeues++
	p.queue = append(p.queue, t)
	p.tm.notePoolSteal()
	p.tm.setPoolDepth(len(p.queue))
	p.cond.Broadcast()
	p.mu.Unlock()
}

// workerExit retires one worker. The last worker out either recruits a
// replacement from the unconsumed dialers or — when none remain —
// declares the pool dead and fails everything still queued, so no
// submitter blocks forever on a fleet that cannot answer.
func (p *ReplicaPool) workerExit() {
	p.mu.Lock()
	p.active--
	p.tm.setPoolWorkers(p.active)
	if p.active == 0 {
		if !p.closed && p.started < len(p.Dialers) {
			p.startWorkerLocked()
		} else if !p.dead {
			p.dead = true
			failed := p.queue
			p.queue = nil
			p.tm.setPoolDepth(0)
			p.mu.Unlock()
			for _, t := range failed {
				t.finish(nil, ErrReplicaPoolDown)
			}
			return
		}
	}
	p.mu.Unlock()
}

// Close shuts the pool down: queued shards fail with ErrReplicaPoolDown,
// a worker dialing or backing off gives up, a worker with a shard in
// flight exits after it, and Close returns once every worker has exited.
func (p *ReplicaPool) Close() {
	p.mu.Lock()
	if !p.bound {
		p.mu.Unlock()
		return
	}
	var failed []*replicaTask
	if !p.closed {
		p.closed = true
		close(p.stop)
		failed, p.queue = p.queue, nil
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	for _, t := range failed {
		t.finish(nil, ErrReplicaPoolDown)
	}
	p.workers.Wait()
}

// worker owns one replica connection for its lifetime: dial and
// handshake (with backoff — replicas may still be starting), then pull
// shards until the pool closes or the replica dies past the reconnect
// budget. A shard in flight when the replica dies is re-enqueued, not
// failed: its key makes the surviving replicas' re-run exact.
func (p *ReplicaPool) worker(idx int) {
	defer p.workers.Done()
	defer p.workerExit()
	rng := rand.New(rand.NewSource(p.policy.Seed ^ int64(nodeHash(fmt.Sprintf("replica-%d", idx)))))
	cl := p.dialReplica(idx, rng, true)
	if cl == nil {
		return
	}
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	// acked tracks the checkpoint pages this replica has confirmed
	// holding within the session (see exploreCall). It is per-connection
	// state: a reconnect may mean a restarted replica with an empty
	// store, so the record resets with the dial and warm shipping
	// restarts conservatively.
	acked := make(map[checkpoint.Key]struct{})
	for {
		t := p.pop()
		if t == nil {
			return
		}
		for {
			var out ReplicaExploreResult
			err := p.exploreCall(cl, t.params, t.snap, acked, &out)
			if err == nil {
				p.noteCompleted()
				t.finish(&out, nil)
				break
			}
			if !isConnFault(err) {
				// The replica answered: an application error (bad config,
				// undecodable checkpoint) would recur on any replica.
				p.noteCompleted()
				t.finish(nil, err)
				break
			}
			cl.Close()
			if cl = p.dialReplica(idx, rng, false); cl == nil {
				// Replica dead past the budget: give the shard back to
				// the survivors and retire this worker.
				p.requeue(t)
				return
			}
			p.noteReconnect()
			clear(acked)
		}
	}
}

// exploreCall issues one shard over the worker's connection: snap's
// manifest plus only the pages this replica has not acknowledged this
// session, so a warm round ships a key list and whatever the node's live
// traffic changed instead of megabytes of state. A MissingPages answer
// (replica restarted, snapshot released under its byte budget, or an ack
// recorded from a memo hit) triggers one full re-send. That is a new
// call: a keyed shard takes a new key, which params keeps for the shard's
// retries, because the replica remembers the miss under the first. The
// ack record is rebuilt from what the replica then confirms.
func (p *ReplicaPool) exploreCall(cl *Client, params *ReplicaExploreParams, snap *checkpoint.Snapshot, acked map[checkpoint.Key]struct{}, out *ReplicaExploreResult) error {
	wp := *params
	wp.ship(snap, acked)
	if err := cl.Call(MethodExploreCheckpoint, &wp, out); err != nil {
		return err
	}
	if len(out.MissingPages) > 0 {
		clear(acked)
		if params.Key != 0 {
			params.Key = p.keys.Add(1)
			wp.Key = params.Key
		}
		wp.ship(snap, nil)
		*out = ReplicaExploreResult{}
		if err := cl.Call(MethodExploreCheckpoint, &wp, out); err != nil {
			return err
		}
		if len(out.MissingPages) > 0 {
			// Unreachable with a conforming replica — a full send
			// resolves every key it names. Surface it as an application
			// error so the shard falls back instead of looping.
			return fmt.Errorf("dist: replica still missing %d pages after a full page send", len(out.MissingPages))
		}
	}
	for _, k := range wp.Keys {
		acked[k] = struct{}{}
	}
	return nil
}

// ship fills in the checkpoint: snap's manifest, and the body of every
// page acked does not hold (each once). A nil acked ships every page.
func (p *ReplicaExploreParams) ship(snap *checkpoint.Snapshot, acked map[checkpoint.Key]struct{}) {
	p.Keys = snap.Keys()
	p.Pages = p.Pages[:0]
	sent := make(map[checkpoint.Key]struct{})
	for i, k := range p.Keys {
		if _, ok := acked[k]; ok {
			continue
		}
		if _, ok := sent[k]; !ok {
			sent[k] = struct{}{}
			p.Pages = append(p.Pages, snap.Page(i))
		}
	}
}

func (p *ReplicaPool) noteCompleted() {
	p.mu.Lock()
	p.stats.Completed++
	p.mu.Unlock()
}

func (p *ReplicaPool) noteReconnect() {
	p.mu.Lock()
	p.stats.Reconnects++
	p.tm.notePoolReconnect()
	p.mu.Unlock()
}

// dialReplica establishes one identified replica connection under the
// retry policy's attempt rule. first marks the worker's initial dial,
// which goes out without a backoff pause (a healthy replica should not
// wait). A replica that answers the hello with a refusal — a protocol
// version mismatch — would refuse every redial too, so that ends the
// attempt at once, and so does Close.
func (p *ReplicaPool) dialReplica(idx int, rng *rand.Rand, first bool) *Client {
	var cl *Client
	d := stoppableDialer{Dialer: p.Dialers[idx], stop: p.stop}
	err := p.policy.redial(rng, first, p.stop, func() (err error) {
		cl, _, err = p.policy.handshake(d, p.session, nil)
		return err
	}, identityErr)
	if err != nil {
		return nil
	}
	return cl
}

// stoppableDialer closes, unused, a connection whose dial completes
// after stop closed, so a pool closed mid-dial never handshakes.
type stoppableDialer struct {
	Dialer
	stop <-chan struct{}
}

func (d stoppableDialer) Dial() (io.ReadWriteCloser, error) {
	conn, err := d.Dialer.Dial()
	select {
	case <-d.stop:
		if err == nil {
			conn.Close()
		}
		return nil, errStopped
	default:
		return conn, err
	}
}
