// Package executor is the execution stage of a replica: Executor applies
// ordered requests to the service under the exactly-once rule and takes
// checkpoints, on the caller's goroutine; the last-reply cache (§2.4.4's
// last-rep) rides in every checkpoint; and the builders make the replies a
// replica sends after executing a request (§5.1.1).
package executor

import (
	"repro/internal/crypto"
	"repro/internal/message"
)

// BuildReply constructs the reply for an executed request, applying the
// §5.1.1 digest-reply rule: everyone carries the full result when the
// optimization is off, the result is small, or this replica is the
// designated replier; otherwise only the digest ships.
func BuildReply(self message.NodeID, digestReplies bool, smallResult int,
	view message.View, req *message.Request, result []byte, tentative bool) *message.Reply {
	full := !digestReplies ||
		req.Replier == self || req.Replier == message.NoNode ||
		len(result) <= smallResult
	rep := &message.Reply{
		View:         view,
		Timestamp:    req.Timestamp,
		Client:       req.Client,
		Replica:      self,
		Tentative:    tentative,
		HasResult:    true,
		Result:       result,
		ResultDigest: crypto.DigestOf(result),
	}
	if !full {
		rep.HasResult = false
		rep.Result = nil
	}
	return rep
}

// CachedReply builds the retransmission of a cached reply — always full:
// the client asked again because it lacks a certificate.
func CachedReply(self message.NodeID, view message.View, client message.NodeID,
	cr *Cached) *message.Reply {
	return &message.Reply{
		View:         view,
		Timestamp:    cr.Timestamp,
		Client:       client,
		Replica:      self,
		Tentative:    cr.Tentative,
		HasResult:    true,
		Result:       cr.Result,
		ResultDigest: crypto.DigestOf(cr.Result),
	}
}
