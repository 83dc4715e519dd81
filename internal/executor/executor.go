package executor

import (
	"repro/internal/checkpoint"
	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/statemachine"
)

// Entry is one ordered request to execute. Pre carries a result the caller
// computed itself (recovery requests, whose execution is protocol
// bookkeeping and never touches the service state); for ordinary requests
// the executor runs Service.Execute.
type Entry struct {
	Req    *message.Request
	Pre    []byte
	HasPre bool
}

// Config assembles an executor. Service, Ckpt and Cache are shared with the
// caller, which must not use them concurrently with the executor.
type Config struct {
	// Self is the replica id stamped into replies.
	Self message.NodeID
	// DigestReplies applies §5.1.1: only the designated replier sends the
	// full result.
	DigestReplies bool
	// SmallResult is the §5.1.1 threshold below which results are always
	// sent in full.
	SmallResult int

	Service statemachine.Service
	Ckpt    *checkpoint.Manager
	Cache   *ReplyCache
	// Out transmits one finished reply to its client.
	Out func(rep *message.Reply)
}

// Executor is a replica's execution stage: it applies requests to the
// service under the exactly-once rule, keeps the reply cache, sends
// replies and takes checkpoints. It runs on its caller's goroutine — the
// replica's event loop — and holds no state of its own.
type Executor struct {
	cfg Config
}

// New returns an executor over cfg.
func New(cfg Config) *Executor { return &Executor{cfg: cfg} }

// Cache returns the reply cache the executor maintains.
func (e *Executor) Cache() *ReplyCache { return e.cfg.Cache }

// Exec applies one request of a batch ordered at view (§2.3.3). A request
// at or below its client's last executed timestamp does not run again: a
// retransmission of the last one gets the cached reply, an older one
// nothing. Otherwise the result is cached and the reply sent; tentative
// selects §5.1.2 semantics. Exec reports whether the request ran.
func (e *Executor) Exec(ent Entry, view message.View, nondet []byte, tentative bool) bool {
	req := ent.Req
	client := req.Client
	if cr := e.cfg.Cache.Get(client); cr != nil && req.Timestamp <= cr.Timestamp {
		if req.Timestamp == cr.Timestamp {
			e.cfg.Out(CachedReply(e.cfg.Self, view, client, cr))
		}
		return false
	}
	result := ent.Pre
	if !ent.HasPre {
		result = e.cfg.Service.Execute(client, req.Op, nondet)
	}
	// Cache the canonical (timestamp, result) for retransmissions; the
	// protocol envelope (view, tentative) is rebuilt when resending so the
	// checkpointed reply cache is identical across replicas.
	e.cfg.Cache.Set(client, req.Timestamp, result, tentative)
	e.reply(req, result, tentative, view)
	return true
}

// ExecReadOnly executes a read-only request against the current state and
// replies (§5.1.3). The caller decides when the state may answer it.
func (e *Executor) ExecReadOnly(req *message.Request, view message.View) {
	e.reply(req, e.cfg.Service.Execute(req.Client, req.Op, nil), false, view)
}

// ResendReply retransmits client's cached reply, if it has one.
func (e *Executor) ResendReply(client message.NodeID, view message.View) {
	if cr := e.cfg.Cache.Get(client); cr != nil {
		e.cfg.Out(CachedReply(e.cfg.Self, view, client, cr))
	}
}

// TakeCheckpoint snapshots the state at seq, with the reply cache riding in
// the snapshot, and returns the checkpoint digest every correct replica
// computes for the same state.
func (e *Executor) TakeCheckpoint(seq message.Seq) crypto.Digest {
	snap := e.cfg.Ckpt.Take(seq, e.cfg.Cache.Marshal())
	return checkpoint.CombinedDigest(snap.Root, snap.Extra)
}

// reply builds and sends the reply for an executed request.
func (e *Executor) reply(req *message.Request, result []byte, tentative bool, view message.View) {
	e.cfg.Out(BuildReply(e.cfg.Self, e.cfg.DigestReplies, e.cfg.SmallResult,
		view, req, result, tentative))
}
