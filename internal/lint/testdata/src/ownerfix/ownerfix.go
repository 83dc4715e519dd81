// Package ownerfix exercises bftowner: goroutine-ownership annotations and
// call-graph reachability from entrypoints, runs= closure checking,
// method-level owner overrides, unknown domains, and allow= suppression.
package ownerfix

// replica mimics the event-loop-owned protocol core. Field-level
// annotations only: method calls on replica are not themselves accesses.
type replica struct {
	seq   int      // bftlint:owner=eventloop
	view  int      // bftlint:owner=eventloop
	inbox chan int // bftlint:owner=shared
}

// region mimics event-loop-owned execution state with a type-level owner:
// calling any of its methods counts as touching event-loop state.
//
// bftlint:owner=eventloop
type region struct{ n int }

func (g *region) modify() { g.n++ }

// cache is an owned type with a shared-method carve-out.
//
// bftlint:owner=eventloop
type cache struct {
	m    map[int]int
	hits int
}

// Len touches nothing a single goroutine owns.
//
// bftlint:owner=shared
func (c *cache) Len() int { return len(c.m) }

// wbuf mimics a worker's private state (the WAL writer's buffers).
//
// bftlint:owner=worker
type wbuf struct{ pending int }

// legacy names a domain outside eventloop | worker | shared; the
// annotation itself is the finding.
//
// bftlint:owner=executor
type legacy struct{ n int } // want `unknown owner domain "executor"`

// spawn mimics a transport attach: literal args run on workers.
//
// bftlint:runs=worker
func spawn(fn func()) { go fn() }

// bump is an unannotated helper; reaching seq through it must still be
// reported at the entrypoint's call site with the chain.
func (r *replica) bump() { r.seq++ }

// bftlint:entrypoint=worker
func decode(r *replica, g *region, c *cache, w *wbuf) {
	r.inbox <- 1 // shared field: ok
	w.pending++  // worker touching worker state: ok
	_ = r.seq    // want `worker-context decode reaches eventloop-owned replica\.seq`
	r.bump()     // want `eventloop-owned replica\.seq via bump`
	g.modify()   // want `eventloop-owned \(region\)\.modify` `eventloop-owned region\.n via modify`
	_ = c.Len()  // owner=shared method override: ok
	_ = r.view   // bftlint:allow=bftowner inspection hook, externally coordinated
}

// arm is not an entrypoint itself, but the closure it hands to spawn runs
// on a worker and is checked under that domain.
func arm(r *replica) {
	_ = r.seq // not an entrypoint: unchecked
	spawn(func() {
		r.seq++ // want `worker-context closure reaches eventloop-owned replica\.seq`
	})
}

// bftlint:entrypoint=eventloop
func loop(g *region, w *wbuf) {
	g.modify()    // event loop touching its own state: ok
	w.pending = 0 // want `eventloop-context loop reaches worker-owned wbuf\.pending`
}
