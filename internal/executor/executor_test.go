package executor

import (
	"bytes"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/statemachine"
)

func req(client message.NodeID, ts uint64, op []byte) *message.Request {
	return &message.Request{Client: client, Timestamp: ts, Replier: message.NoNode, Op: op}
}

type harness struct {
	ex   *Executor
	reps []*message.Reply
	mgr  *checkpoint.Manager
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	region := statemachine.NewRegion(kvservice.MinStateSize, 1024)
	h := &harness{mgr: checkpoint.NewManager(region, 16)}
	h.ex = New(Config{
		Self:          0,
		DigestReplies: true,
		SmallResult:   32,
		Service:       kvservice.New(region),
		Ckpt:          h.mgr,
		Cache:         NewReplyCache(),
		Out:           func(rep *message.Reply) { h.reps = append(h.reps, rep) },
	})
	return h
}

// execBatch executes entries in order as one batch ordered in view 0.
func (h *harness) execBatch(tentative bool, entries ...Entry) (ran int) {
	for _, ent := range entries {
		if h.ex.Exec(ent, 0, nil, tentative) {
			ran++
		}
	}
	return ran
}

func TestExecBatchRepliesAndCaches(t *testing.T) {
	h := newHarness(t)
	cl := message.ClientIDBase
	if ran := h.execBatch(false,
		Entry{Req: req(cl, 1, kvservice.Incr())},
		Entry{Req: req(cl+1, 1, kvservice.Incr())},
	); ran != 2 {
		t.Fatalf("%d of 2 fresh requests ran", ran)
	}
	if len(h.reps) != 2 {
		t.Fatalf("got %d replies, want 2", len(h.reps))
	}
	if got := kvservice.DecodeU64(h.reps[0].Result); got != 1 {
		t.Fatalf("first incr -> %d", got)
	}
	if got := kvservice.DecodeU64(h.reps[1].Result); got != 2 {
		t.Fatalf("second incr -> %d", got)
	}
	if cr := h.ex.Cache().Get(cl); cr == nil || cr.Timestamp != 1 {
		t.Fatalf("cache entry missing after execution: %+v", cr)
	}
}

func TestExactlyOnceAndResend(t *testing.T) {
	h := newHarness(t)
	cl := message.ClientIDBase
	h.execBatch(false, Entry{Req: req(cl, 5, kvservice.Incr())})
	// A duplicate at the same timestamp resends the cached reply instead of
	// re-executing; an older timestamp is dropped.
	if ran := h.execBatch(false,
		Entry{Req: req(cl, 5, kvservice.Incr())},
		Entry{Req: req(cl, 4, kvservice.Incr())},
	); ran != 0 {
		t.Fatalf("%d stale or duplicate requests ran", ran)
	}
	h.ex.ResendReply(cl, 0)
	if len(h.reps) != 3 { // execute + duplicate resend + explicit resend
		t.Fatalf("got %d replies, want 3", len(h.reps))
	}
	for i, rep := range h.reps {
		if got := kvservice.DecodeU64(rep.Result); got != 1 {
			t.Fatalf("reply %d carries counter %d, want 1 (re-execution leaked)", i, got)
		}
	}
}

func TestCheckpointEventDigest(t *testing.T) {
	h := newHarness(t)
	cl := message.ClientIDBase
	h.execBatch(false, Entry{Req: req(cl, 1, kvservice.Incr())})
	d := h.ex.TakeCheckpoint(1)
	// The reported digest must match what the manager + cache give.
	snap, ok := h.mgr.Snapshot(1)
	if !ok {
		t.Fatal("snapshot 1 missing")
	}
	if d != checkpoint.CombinedDigest(snap.Root, snap.Extra) {
		t.Fatal("reported digest disagrees with the manager snapshot")
	}
	if !bytes.Equal(snap.Extra, h.ex.Cache().Marshal()) {
		t.Fatal("the reply cache does not ride in the snapshot")
	}
	if h.mgr.PagesDigested == 0 {
		t.Fatal("checkpoint digested no pages")
	}
}

func TestPrecomputedResultSkipsService(t *testing.T) {
	h := newHarness(t)
	cl := message.NodeID(2) // replica id: a recovery request
	pre := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	h.execBatch(false, Entry{Req: req(cl, 1, kvservice.Incr()), Pre: pre, HasPre: true})
	if !bytes.Equal(h.reps[0].Result, pre) {
		t.Fatal("precomputed result not used")
	}
	// The service op must not have run: counter unchanged.
	h.ex.ExecReadOnly(req(message.ClientIDBase, 1, kvservice.Get()), 0)
	if got := kvservice.DecodeU64(h.reps[len(h.reps)-1].Result); got != 0 {
		t.Fatalf("counter = %d after precomputed entry, want 0", got)
	}
}

func TestTentativeFinalize(t *testing.T) {
	c := NewReplyCache()
	cl := message.ClientIDBase
	c.Set(cl, 1, []byte("one"), true)
	if cr := c.Get(cl); !cr.Tentative {
		t.Fatal("cache entry not tentative")
	}
	if rep := CachedReply(0, 0, cl, c.Get(cl)); !rep.Tentative {
		t.Fatal("retransmitted reply lost the tentative flag")
	}
	c.MarkFinal(cl, 2) // a later timestamp is not this entry
	if !c.Get(cl).Tentative {
		t.Fatal("finalize for another timestamp cleared the flag")
	}
	c.MarkFinal(cl, 1)
	if cr := c.Get(cl); cr.Tentative {
		t.Fatal("finalize did not clear the tentative flag")
	}
}

func TestDigestRepliesSlimming(t *testing.T) {
	result := bytes.Repeat([]byte{7}, 256)
	rr := req(message.ClientIDBase, 2, nil)
	rr.Replier = 3
	rep := BuildReply(0, true, 32, 0, rr, result, false)
	if rep.HasResult || rep.Result != nil {
		t.Fatal("reply for non-designated replier not slimmed")
	}
	if rep.ResultDigest.IsZero() {
		t.Fatal("slimmed reply lacks result digest")
	}
	// The designated replier, and everyone for a small result, ship it full.
	if rep := BuildReply(3, true, 32, 0, rr, result, false); !rep.HasResult {
		t.Fatal("designated replier's reply slimmed")
	}
	if rep := BuildReply(0, true, 32, 0, rr, result[:32], false); !rep.HasResult {
		t.Fatal("small result slimmed")
	}
}

func TestReplyCacheRoundTrip(t *testing.T) {
	c := NewReplyCache()
	c.Set(message.ClientIDBase, 3, []byte("abc"), false)
	c.Set(message.ClientIDBase+5, 9, nil, true)
	b := c.Marshal()

	c2 := NewReplyCache()
	c2.Install(b)
	if c2.Len() != 2 {
		t.Fatalf("installed %d entries, want 2", c2.Len())
	}
	cr := c2.Get(message.ClientIDBase)
	if cr == nil || cr.Timestamp != 3 || !bytes.Equal(cr.Result, []byte("abc")) {
		t.Fatalf("round trip lost entry: %+v", cr)
	}
	// Checkpointed replies install committed regardless of live flags.
	if c2.Get(message.ClientIDBase + 5).Tentative {
		t.Fatal("installed entry kept tentative flag")
	}
	// Marshaling must be deterministic (it is checkpointed state).
	if !bytes.Equal(b, c2.Marshal()) {
		t.Fatal("marshal not deterministic across install")
	}
}
