package pbft

// Tests for the replica's single event loop: receive-queue overflow
// accounting, progress under aggressive key refresh, the client's replier
// rotation, and the per-message allocation budget of the inline
// decode/verify and seal paths.

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/egress"
	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/simnet"
)

func TestInboxOverflowCounted(t *testing.T) {
	// Flood an unstarted replica (its event loop consumes nothing) past its
	// tiny inbox: the drops the attach handler used to swallow silently
	// must now be counted. The receive path is serial — onRaw decodes and
	// verifies on the event loop — so the inbox is the only queue a
	// datagram can overflow.
	t.Run("serial", func(t *testing.T) {
		net := simnet.New(simnet.WithSeed(1))
		t.Cleanup(func() { net.Close() })
		cfg := testConfig()
		cfg.ID = 0
		cfg.N = 4
		cfg.InboxCap = 4
		dir := NewDirectory(4)
		r := NewReplica(cfg, dir, net, kvservice.Factory) // not started yet
		t.Cleanup(r.Stop)                                 // Stop without Start is safe

		attacker := newRawSender(net, message.ClientIDBase+9)
		payload := (&message.Request{
			Client:    message.ClientIDBase + 9,
			Timestamp: 1,
			Replier:   message.NoNode,
			Op:        kvservice.Get(),
		}).Marshal()
		for i := 0; i < 256; i++ {
			attacker.trans.Send(0, payload)
		}
		deadline := time.Now().Add(5 * time.Second)
		for r.inboxDrops.Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("no inbox drops counted after flooding a full inbox")
			}
			time.Sleep(time.Millisecond)
		}
		// The counter must surface through the public snapshot too.
		r.Start()
		m := r.Metrics()
		if m.InboxDrops == 0 {
			t.Fatal("Metrics().InboxDrops = 0 after overflow")
		}
	})
}

func TestEgressSurvivesKeyRefresh(t *testing.T) {
	// Key refreshment (§4.3.1) rotates the key store between messages
	// sealed and verified on the event loop; every send is sealed with the
	// keys current when it leaves, so the protocol keeps making progress
	// across aggressive refresh intervals.
	cfg := testConfig()
	cfg.KeyRefreshInterval = 10 * tickInterval
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	r0 := c.Replica(0)
	epoch := func() (e uint32) {
		r0.do(func() { e = r0.rec.epoch })
		return e
	}
	var epoch0 uint32
	for i := 1; i <= 20; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d -> %d under key refresh", i, got)
		}
		if i == 1 {
			epoch0 = epoch()
		}
	}
	waitUntil(t, 10*time.Second, "a key refresh", func() bool {
		return epoch() != epoch0
	})
}

func TestPickReplierRoundRobin(t *testing.T) {
	// §5.1.1 load balancing: the designated replier must rotate through the
	// replicas in strict rotation — over any window of n picks each replica
	// is designated exactly once. (The seed-scrambled LCG this replaces
	// skewed the distribution through modulo bias.)
	net := simnet.New(simnet.WithSeed(1))
	t.Cleanup(func() { net.Close() })
	dir := NewDirectory(4)
	cl := NewClient(message.ClientIDBase, dir, net, ModeMAC, Options{})
	t.Cleanup(cl.Close)

	first := cl.pickReplier()
	counts := make(map[message.NodeID]int)
	counts[first]++
	prev := first
	for i := 1; i < 40; i++ {
		r := cl.pickReplier()
		if want := message.NodeID((int(prev) + 1) % 4); r != want {
			t.Fatalf("pick %d: got replica %d after %d, want %d", i, r, prev, want)
		}
		counts[r]++
		prev = r
	}
	for id := message.NodeID(0); id < 4; id++ {
		if counts[id] != 10 {
			t.Fatalf("replica %d designated %d times in 40 picks, want 10", id, counts[id])
		}
	}
}

// TestMessageAllocBudget pins the per-message allocation counts of the
// paths every protocol message takes on the event loop: sealing a Prepare
// multicast, sealing a point-MAC Reply, and decoding plus verifying a
// Commit as onRaw does. The budgets are today's counts; a change may lower
// them, never raise them.
func TestMessageAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const n = 4
	sender, receiver := crypto.NewKeyStore(1), crypto.NewKeyStore(0)
	for p := uint32(0); p < n; p++ {
		sender.InstallInitial(p)
		receiver.InstallInitial(p)
	}
	client := message.ClientIDBase
	sender.InstallInitial(uint32(client))
	s := sealer{mode: ModeMAC, n: n, ks: sender}
	v := verifier{mode: ModeMAC, dir: NewDirectory(n), ks: receiver}

	var d crypto.Digest
	d[0] = 0xab
	prepare := &message.Prepare{View: 2, Seq: 77, Digest: d, Replica: 1}
	reply := &message.Reply{View: 2, Timestamp: 9, Client: client, Replica: 1,
		HasResult: true, Result: []byte("result"), ResultDigest: crypto.DigestOf([]byte("result"))}
	// Each send seals into a fresh wire buffer, as egress.Sender does on a
	// transport that never hands buffers back.
	seal := func(kind egress.Kind, dst message.NodeID, m message.Message) []byte {
		return s.Seal(make([]byte, 0, egress.BufCap), kind, dst, m)
	}
	commit := seal(egress.Vector, message.NoNode,
		&message.Commit{View: 2, Seq: 77, Digest: d, Replica: 1})

	var wire []byte
	ok := true
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"seal Prepare multicast", 3, func() { wire = seal(egress.Vector, message.NoNode, prepare) }},
		{"seal point-MAC Reply", 2, func() { wire = seal(egress.Point, client, reply) }},
		{"decode+verify Commit", 4, func() {
			m, err := message.Unmarshal(commit)
			ok = ok && err == nil && v.Verify(m)
		}},
	} {
		if got := testing.AllocsPerRun(1000, c.fn); got > c.want {
			t.Errorf("%s: %v allocs per message, budget %v", c.name, got, c.want)
		}
	}
	if !ok || len(wire) == 0 {
		t.Fatal("inline seal/verify path rejected its own messages")
	}
}
