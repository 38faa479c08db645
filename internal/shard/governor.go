package shard

import (
	"sync/atomic"
	"time"

	"miodb/internal/core"
	"miodb/internal/stats"
)

// The adaptive memory governor: one global DRAM budget, continuously
// rebalanced across shards.
//
// A static split gives every shard budget/n bytes of memtable whether it
// is hammered or idle, so under skew the hot shards rotate and flush
// constantly while cold shards sit on idle arenas. The governor samples
// each shard's write heat (core.DB.Heat — user bytes, flushes,
// rotations) on a ticker, smooths it with an EWMA, and re-divides the
// budget proportionally: write-hot shards grow toward fewer flushes,
// cold shards shrink toward a floor. Targets are applied through
// core.DB.SetMemTableTarget, which only takes effect at each shard's
// next rotation — the governor never resizes a live arena.
//
// Two rules keep the loop honest:
//
//   - Budget: shrinks are applied before grows and every grow is capped
//     by the headroom the rest of the fleet leaves, so the sum of
//     applied targets never exceeds the budget — even mid-transition.
//   - Hysteresis: a move smaller than HysteresisFrac of the shard's
//     current target is skipped, so allocations don't thrash when the
//     heat signal wobbles around a steady state.

// GovernorOptions configures the adaptive memory governor. The zero
// value is usable: every field defaults as documented.
type GovernorOptions struct {
	// Budget is the global DRAM memtable budget in bytes, divided across
	// all shards. When > 0 each shard *starts* at Budget/n (overriding
	// opts.MemTableSize, so adaptive and static arms compare at equal
	// total memory); 0 adopts the static configuration's total
	// (n × the defaulted per-shard MemTableSize).
	Budget int64
	// Interval is the governor tick. Default 10ms — a few rotations of a
	// hot 64 KB shard, so decisions track the signal they act on.
	Interval time.Duration
	// FloorBytes is the per-shard minimum target: cold shards shrink to
	// this, never below (a shard must always be able to accept writes).
	// Default: Budget/(4n), at least 4 KB.
	FloorBytes int64
	// HysteresisFrac skips any move smaller than this fraction of the
	// shard's current target. Default 0.15.
	HysteresisFrac float64
	// Alpha is the EWMA weight of the newest heat interval in [0, 1];
	// higher reacts faster, lower smooths more. Default 0.5.
	Alpha float64
}

// SplitBudget is each of n shards' memtable size under a global budget:
// the even split, but never 0, so a budget too small to split meets
// core.Open's memtable floor instead of its 0-means-default.
func SplitBudget(budget int64, n int) int64 { return max(budget/int64(n), 1) }

func (g GovernorOptions) withDefaults(n int) GovernorOptions {
	if g.Interval <= 0 {
		g.Interval = 10 * time.Millisecond
	}
	if g.FloorBytes <= 0 {
		g.FloorBytes = g.Budget / int64(4*n)
		if g.FloorBytes < 4<<10 {
			g.FloorBytes = 4 << 10
		}
	}
	if g.HysteresisFrac < 0 {
		g.HysteresisFrac = 0
	} else if g.HysteresisFrac == 0 {
		g.HysteresisFrac = 0.15
	}
	if g.Alpha <= 0 || g.Alpha > 1 {
		g.Alpha = 0.5
	}
	return g
}

// OpenGoverned is Open plus the adaptive memory governor. gov == nil is
// exactly Open: the static split, byte for byte — no goroutine, no
// target ever moved. With gov set, shards open at the even split of the
// budget and the governor loop starts rebalancing immediately.
func OpenGoverned(n int, opts core.Options, gov *GovernorOptions) (*Router, error) {
	if err := core.Refusal(core.OpOpen, opts, n, gov != nil); err != nil {
		return nil, err
	}
	if gov == nil {
		return Open(n, opts)
	}
	g := *gov
	if g.Budget > 0 {
		opts.MemTableSize = SplitBudget(g.Budget, n)
	}
	r, err := Open(n, opts)
	if err != nil {
		return nil, err
	}
	if g.Budget <= 0 {
		// Adopt the static configuration's total so "turn the governor
		// on" never changes how much memory the store uses.
		for _, db := range r.shards {
			g.Budget += db.MemTableTarget()
		}
	}
	// The budget is resolved first: the floor's default derives from it.
	r.gov = newGovernor(r.shards, g.withDefaults(n))
	go r.gov.run()
	return r, nil
}

// governor is the rebalancing loop state; one per governed Router.
type governor struct {
	shards []*core.DB
	opts   GovernorOptions
	prev   []stats.Heat // last tick's cumulative heat sample per shard
	score  []float64    // EWMA of per-interval demand (bytes written)
	stop   chan struct{}
	done   chan struct{}
	moves  atomic.Int64 // applied retargets (observability)
}

func newGovernor(shards []*core.DB, opts GovernorOptions) *governor {
	return &governor{
		shards: shards,
		opts:   opts,
		prev:   make([]stats.Heat, len(shards)),
		score:  make([]float64, len(shards)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

func (g *governor) run() {
	defer close(g.done)
	for i, db := range g.shards {
		g.prev[i] = db.Heat()
	}
	tick := time.NewTicker(g.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C:
			g.rebalance()
		}
	}
}

// stopTicking halts the loop and waits for an in-flight rebalance to
// finish; idempotent.
func (g *governor) stopTicking() {
	select {
	case <-g.stop:
	default:
		close(g.stop)
	}
	<-g.done
}

// rebalance is one governor tick: sample heat, update scores, compute
// proportional shares, and apply them under the budget with hysteresis.
func (g *governor) rebalance() {
	n := len(g.shards)
	var total float64
	for i, db := range g.shards {
		h := db.Heat()
		d := h.Delta(g.prev[i])
		g.prev[i] = h
		g.score[i] = g.opts.Alpha*float64(d.UserBytes) + (1-g.opts.Alpha)*g.score[i]
		total += g.score[i]
	}

	budget := g.opts.Budget
	floor := g.opts.FloorBytes
	spare := budget - int64(n)*floor
	if spare < 0 {
		spare = 0
	}
	want := make([]int64, n)
	if total <= 0 {
		// No demand anywhere: hold the even split.
		for i := range want {
			want[i] = budget / int64(n)
		}
	} else {
		for i := range want {
			want[i] = floor + int64(float64(spare)*(g.score[i]/total))
		}
	}

	cur := make([]int64, n)
	var sum int64
	for i, db := range g.shards {
		cur[i] = db.MemTableTarget()
		sum += cur[i]
	}
	hyst := g.opts.HysteresisFrac

	// Shrinks first: they release headroom the grows below spend.
	for i, db := range g.shards {
		if want[i] >= cur[i] || float64(cur[i]-want[i]) < hyst*float64(cur[i]) {
			continue
		}
		applied := db.SetMemTableTarget(want[i])
		sum += applied - cur[i]
		cur[i] = applied
		g.moves.Add(1)
	}
	// Grows, each capped by the headroom the rest of the fleet leaves so
	// the applied targets never sum past the budget. SetMemTableTarget
	// may clamp further (the ChunkSize cap); the accounting uses the
	// applied value, not the ask.
	for i, db := range g.shards {
		if want[i] <= cur[i] || float64(want[i]-cur[i]) < hyst*float64(cur[i]) {
			continue
		}
		w := want[i]
		if headroom := budget - (sum - cur[i]); w > headroom {
			w = headroom
		}
		if w <= cur[i] {
			continue
		}
		applied := db.SetMemTableTarget(w)
		sum += applied - cur[i]
		cur[i] = applied
		g.moves.Add(1)
	}
}

// MemTableTargets returns every shard's next-memtable capacity target —
// the governor's current division of the budget (or the static split
// when no governor runs).
func (r *Router) MemTableTargets() []int64 {
	out := make([]int64, len(r.shards))
	for i, db := range r.shards {
		out[i] = db.MemTableTarget()
	}
	return out
}

// GovernorBudget returns the governor's global memtable budget in bytes,
// or 0 when the router runs the static split.
func (r *Router) GovernorBudget() int64 {
	if r.gov == nil {
		return 0
	}
	return r.gov.opts.Budget
}

// GovernorMoves returns how many retargets the governor has applied —
// 0 on a static router, and low on a steady workload (hysteresis).
func (r *Router) GovernorMoves() int64 {
	if r.gov == nil {
		return 0
	}
	return r.gov.moves.Load()
}

// stopGovernor halts the rebalancing loop if one runs; safe to call
// more than once, and a no-op on a static router.
func (r *Router) stopGovernor() {
	if r.gov != nil {
		r.gov.stopTicking()
	}
}
