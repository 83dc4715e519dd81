package pbft

// Tests for the replica's stages as they run on the event loop — serial
// ingress (decode and verify in onRaw) and serial egress (seal and send) —
// and for agreement in groups whose replicas pipeline agreement or shape
// their replies differently. Neither the agreement window nor the
// digest-reply rule changes the wire protocol, so replicas configured
// either way must produce the same history and interoperate in one group.

import (
	"testing"

	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/simnet"
)

// incrGetRoundTrip runs five increments and a read-only get through cl and
// checks every result.
func incrGetRoundTrip(t *testing.T, cl *Client) {
	t.Helper()
	for i := 1; i <= 5; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d", i, got)
		}
	}
	res := mustInvoke(t, cl, kvservice.Get(), true)
	if got := kvservice.DecodeU64(res); got != 5 {
		t.Fatalf("read-only get returned %d, want 5", got)
	}
}

// silentPrimaryViewChange drives one increment through a group whose
// view-0 primary never proposes and returns the cluster once it settled.
func silentPrimaryViewChange(t *testing.T) *Cluster {
	t.Helper()
	c := newTestCluster(t, 4, testConfig(), map[message.NodeID]Behavior{
		0: SilentPrimary,
	})
	cl := c.NewClient()
	cl.MaxRetries = 30
	res := mustInvoke(t, cl, kvservice.Incr(), false)
	if got := kvservice.DecodeU64(res); got != 1 {
		t.Fatalf("incr -> %d", got)
	}
	if v := c.Replica(1).View(); v < 1 {
		t.Fatalf("system settled in view %d, expected >= 1", v)
	}
	return c
}

func TestSerialIngressInvoke(t *testing.T) {
	// Every datagram is decoded and verified on the event loop; a correct
	// group serves read-write and read-only requests and rejects nothing.
	c := newTestCluster(t, 4, testConfig(), nil)
	incrGetRoundTrip(t, c.NewClient())
	for i := 0; i < c.N(); i++ {
		if m := c.Replica(i).Metrics(); m.MsgsDroppedBadAuth != 0 {
			t.Fatalf("replica %d dropped %d genuine messages as unauthentic",
				i, m.MsgsDroppedBadAuth)
		}
	}
}

func TestSerialIngressViewChange(t *testing.T) {
	// View-change and new-view messages take the same receive path as
	// normal-case traffic.
	silentPrimaryViewChange(t)
}

func TestSerialEgressInvoke(t *testing.T) {
	// Every send is sealed and handed to the transport on the event loop:
	// there is no outbox to overflow.
	c := newTestCluster(t, 4, testConfig(), nil)
	incrGetRoundTrip(t, c.NewClient())
	for i := 0; i < c.N(); i++ {
		if m := c.Replica(i).Metrics(); m.OutboxDrops != 0 {
			t.Fatalf("replica %d reports %d outbox drops", i, m.OutboxDrops)
		}
	}
}

func TestSerialEgressViewChange(t *testing.T) {
	// The view-change certificate a new primary multicasts is sealed on
	// its event loop like any other send; every correct replica must
	// install the same view.
	c := silentPrimaryViewChange(t)
	v := c.Replica(1).View()
	waitReplicas(t, c, 1, 3, "the new view", func(r *Replica) bool {
		return r.View() == v
	})
}

// incrHistory runs ten increments from one client against a fresh group
// built from cfg and returns the results in order.
func incrHistory(t *testing.T, cfg Config) []uint64 {
	t.Helper()
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	defer c.Stop()
	cl := c.NewClient()
	var out []uint64
	for i := 0; i < 10; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		out = append(out, kvservice.DecodeU64(res))
	}
	return out
}

// sameHistory fails the test if histories a and b differ.
func sameHistory(t *testing.T, aName string, a []uint64, bName string, b []uint64) {
	t.Helper()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("histories diverge at op %d: %s=%d %s=%d", i, aName, a[i], bName, b[i])
		}
	}
}

// mixedCluster starts four replicas from cfg, letting tweak adjust each
// replica's config, and returns a client of the group.
func mixedCluster(t *testing.T, cfg Config, tweak func(i int, rc *Config)) *Client {
	t.Helper()
	net := simnet.New(simnet.WithSeed(cfg.Seed + 7))
	t.Cleanup(func() { net.Close() })
	cfg.N = 4
	cfg.Validate()
	dir := NewDirectory(4)
	var reps []*Replica
	for i := 0; i < 4; i++ {
		rc := cfg
		rc.ID = message.NodeID(i)
		tweak(i, &rc)
		r := NewReplica(rc, dir, net, kvservice.Factory)
		reps = append(reps, r)
		r.Start()
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.Stop()
		}
	})
	cl := NewClient(message.ClientIDBase, dir, net, cfg.Mode, cfg.Opt)
	t.Cleanup(cl.Close)
	return cl
}

// incrSequence runs eight increments through cl and checks each result.
func incrSequence(t *testing.T, cl *Client) {
	t.Helper()
	for i := 1; i <= 8; i++ {
		res, err := cl.Invoke(kvservice.Incr(), false)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d -> %d", i, got)
		}
	}
}

func TestPipelineSerialAgreement(t *testing.T) {
	// A pipelined primary (§5.1.4 sliding window: several batches in
	// agreement at once) and a serial one (window 1) must produce
	// identical execution histories for the same workload.
	serialCfg := testConfig()
	serialCfg.Opt.AgreementWindow = 1
	serial := incrHistory(t, serialCfg)
	pipelined := incrHistory(t, testConfig())
	sameHistory(t, "serial", serial, "pipelined", pipelined)
}

func TestPipelineMixedClusterAgreement(t *testing.T) {
	// The agreement window bounds only what a primary proposes; replicas
	// with different windows interoperate in one group.
	cl := mixedCluster(t, testConfig(), func(i int, rc *Config) {
		if i%2 == 1 { // replicas 0,2 pipelined; 1,3 serial
			rc.Opt.AgreementWindow = 1
		}
	})
	incrSequence(t, cl)
}

func TestEgressSerialAgreement(t *testing.T) {
	// What a replica sends depends on its options, never on scheduling:
	// with digest replies (§5.1.1) on and off, the same workload must
	// produce identical execution histories.
	fullCfg := testConfig()
	fullCfg.Opt.DigestReplies = false
	full := incrHistory(t, fullCfg)
	digest := incrHistory(t, testConfig())
	sameHistory(t, "full", full, "digest", digest)
}

func TestEgressMixedClusterAgreement(t *testing.T) {
	// Replicas that send digest replies and replicas that always send full
	// results interoperate in one group: the client's reply certificate
	// matches on the result digest either way.
	cl := mixedCluster(t, testConfig(), func(i int, rc *Config) {
		rc.Opt.DigestReplies = i%2 == 0 // replicas 0,2 digest; 1,3 full
	})
	incrSequence(t, cl)
	blob := make([]byte, 512)
	for i := range blob {
		blob[i] = byte(i)
	}
	if _, err := cl.Invoke(kvservice.WriteBlob(blob), false); err != nil {
		t.Fatalf("write blob: %v", err)
	}
	res, err := cl.Invoke(kvservice.ReadBlob(len(blob)), true)
	if err != nil {
		t.Fatalf("read blob: %v", err)
	}
	if string(res) != string(blob) {
		t.Fatalf("read back %d bytes that differ from the written blob", len(res))
	}
}
