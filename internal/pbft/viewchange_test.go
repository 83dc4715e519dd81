package pbft

import (
	"sync"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/kvservice"
	"repro/internal/message"
)

func TestCascadingViewChanges(t *testing.T) {
	// n=7 tolerates f=2: replicas 0 and 1 are silent when primary, so the
	// group must cascade through views 0 and 1 and settle on replica 2.
	cfg := testConfig()
	c := newTestCluster(t, 7, cfg, map[message.NodeID]Behavior{
		0: SilentPrimary, 1: SilentPrimary,
	})
	cl := c.NewClient()
	cl.MaxRetries = 30
	for i := 1; i <= 4; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d -> %d", i, got)
		}
	}
	if v := c.Replica(2).View(); v < 2 {
		t.Fatalf("system settled in view %d, expected >= 2", v)
	}
}

func TestViewChangeUnderLoad(t *testing.T) {
	// Kill the primary while several clients are in flight: every client's
	// operations must eventually complete exactly once.
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)

	const nClients = 5
	const each = 8
	var wg sync.WaitGroup
	errCh := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		cl := c.NewClient()
		cl.MaxRetries = 30
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if _, err := cl.Invoke(kvservice.Incr(), false); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}()
	}
	time.Sleep(30 * time.Millisecond)
	c.Net.Isolate(0) // primary dies mid-stream
	wg.Wait()
	for i := 0; i < nClients; i++ {
		if err := <-errCh; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	cl := c.NewClient()
	cl.MaxRetries = 30
	res := mustInvoke(t, cl, kvservice.Get(), true)
	if got := kvservice.DecodeU64(res); got != nClients*each {
		t.Fatalf("counter %d, want %d (lost or duplicated ops across view change)", got, nClients*each)
	}
}

func TestPKModeViewChange(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = ModePK
	c := newTestCluster(t, 4, cfg, map[message.NodeID]Behavior{0: SilentPrimary})
	cl := c.NewClient()
	cl.MaxRetries = 30
	for i := 1; i <= 3; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d -> %d", i, got)
		}
	}
}

func TestSuccessiveViewChanges(t *testing.T) {
	// Kill primaries one after another (healing in between): views must
	// keep advancing and state must survive every transition.
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)
	cl := c.NewClient()
	cl.MaxRetries = 40

	count := uint64(0)
	incr := func(tag string) {
		count++
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != count {
			t.Fatalf("%s: incr -> %d, want %d", tag, got, count)
		}
	}
	incr("view 0")
	for round := 0; round < 2; round++ {
		// Figure out the current primary from a live replica's view.
		v := c.Replica(1).View()
		primary := int(uint64(v) % 4)
		c.Net.Isolate(message.NodeID(primary))
		incr("after kill")
		incr("stable in new view")
		c.Net.Heal()
		incr("after heal")
	}
}

func TestViewChangePropagatesPreparedRequest(t *testing.T) {
	// A request that prepared (but had not committed everywhere) before the
	// view change must keep its sequence number in the new view — observed
	// indirectly: no increment is lost or duplicated across the change.
	cfg := testConfig()
	cfg.Opt.TentativeExec = true
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)
	cl := c.NewClient()
	cl.MaxRetries = 40

	for i := 1; i <= 3; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	// Cut the primary's outbound commits only: requests can prepare but the
	// primary's commit is missing; then isolate it fully.
	c.Net.Isolate(0)
	for i := 4; i <= 6; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d -> %d", i, got)
		}
	}
}

func TestClientTracksViewAcrossFailover(t *testing.T) {
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)
	cl := c.NewClient()
	cl.MaxRetries = 40

	mustInvoke(t, cl, kvservice.Incr(), false)
	c.Net.Isolate(0)
	mustInvoke(t, cl, kvservice.Incr(), false) // slow: discovers new primary

	// Now the client should know the new view: the next op must be fast
	// (sent straight to the new primary, no retransmission needed).
	start := time.Now()
	mustInvoke(t, cl, kvservice.Incr(), false)
	if el := time.Since(start); el > cl.RetryTimeout {
		t.Fatalf("op after failover took %v — client did not track the new primary", el)
	}
}

func TestQSetBoundedGrowth(t *testing.T) {
	// Repeated view changes without progress must not grow P/Q entries
	// per sequence number without bound for the same digest.
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)
	cl := c.NewClient()
	cl.MaxRetries = 40
	mustInvoke(t, cl, kvservice.Incr(), false)

	r := c.Replica(2)
	r.do(func() {
		for i := 0; i < 5; i++ {
			r.startViewChange(r.view + 1)
		}
		for seq, entries := range r.vc.qset {
			if len(entries) > 5 {
				t.Errorf("qset[%d] grew to %d entries", seq, len(entries))
			}
		}
	})
}

func TestDecisionProcedureDeterminism(t *testing.T) {
	// The primary's decision must be a pure function of S: two replicas
	// running it over the same set agree (backup verification relies on it).
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)
	cl := c.NewClient()
	for i := 0; i < 5; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}

	// Harvest real view-change messages from every replica.
	vcs := make(map[message.NodeID]*message.ViewChange)
	for i := 0; i < 4; i++ {
		r := c.Replica(i)
		r.do(func() {
			r.computePQ()
			vcs[r.id] = r.buildViewChange(r.view + 1)
		})
	}
	var d0, d1 decision
	c.Replica(0).do(func() { d0 = c.Replica(0).runDecision(vcs) })
	c.Replica(1).do(func() { d1 = c.Replica(1).runDecision(vcs) })
	if d0.ok != d1.ok || d0.ckptSeq != d1.ckptSeq || d0.ckptDigest != d1.ckptDigest ||
		len(d0.x) != len(d1.x) {
		t.Fatalf("decisions differ: %+v vs %+v", d0, d1)
	}
	for i := range d0.x {
		if d0.x[i] != d1.x[i] {
			t.Fatalf("decision X[%d] differs", i)
		}
	}
}

func TestQSetBoundEnforced(t *testing.T) {
	cfg := testConfig()
	cfg.QSetBound = 2
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)
	cl := c.NewClient()
	cl.MaxRetries = 40
	mustInvoke(t, cl, kvservice.Incr(), false)

	r := c.Replica(2)
	r.do(func() {
		// Fabricate pre-prepared slots across many views, then fold them
		// into the QSet repeatedly.
		for v := message.View(1); v <= 6; v++ {
			slot := r.log.Slot(r.log.Low() + 1)
			if slot == nil {
				t.Error("no slot")
				return
			}
			slot.AddDigestOnly(v, crypto.DigestOf([]byte{byte(v)}))
			slot.PrePrepared = true
			r.computePQ()
		}
		for seq, entries := range r.vc.qset {
			if len(entries) > 2 {
				t.Errorf("qset[%d] holds %d entries, bound is 2", seq, len(entries))
			}
			// The retained entries must be the most recent views.
			for _, e := range entries {
				if e.View < 5 && len(entries) == 2 {
					t.Errorf("qset[%d] kept a stale view %d", seq, e.View)
				}
			}
		}
	})
}

// TestNewViewWaitSurvivesRetransmission is the §2.3.5 liveness regression:
// once 2f+1 view-changes for view v are in, a backup arms the new-view wait
// timer, and if the primary of v never delivers its new-view the backup
// must move on to v+1. A client retransmitting every 10 ms keeps landing
// requests on the waiting backups; none of them may erase that timer.
func TestNewViewWaitSurvivesRetransmission(t *testing.T) {
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, map[message.NodeID]Behavior{0: Crashed})
	// Replica 1, primary of view 1, never delivers its new-view.
	c.Net.SetFilter(func(src, dst message.NodeID, p []byte) ([]byte, bool) {
		if src != 1 {
			return p, true
		}
		if m, err := message.Unmarshal(p); err == nil {
			if _, ok := m.(*message.NewView); ok {
				return nil, false
			}
		}
		return p, true
	})
	c.Start()
	t.Cleanup(c.Stop)

	cl := c.NewClient()
	req := &message.Request{Client: cl.ID(), Timestamp: 1, Replier: message.NoNode, Op: kvservice.Incr()}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			cl.sendRequest(req, message.NoNode)
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)

	waitUntil(t, 10*time.Second, "replicas 1-3 leave view 1", func() bool {
		for id := 1; id <= 3; id++ {
			if c.Replica(id).View() < 2 {
				return false
			}
		}
		return true
	})
	// The new primary orders the retransmitted request exactly once.
	res := mustInvoke(t, c.NewClient(), kvservice.Get(), true)
	if got := kvservice.DecodeU64(res); got != 1 {
		t.Fatalf("counter = %d after the view change, want 1", got)
	}
}
