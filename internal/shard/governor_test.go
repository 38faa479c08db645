package shard

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"miodb/internal/core"
)

// keysFor returns count distinct keys that the router hashes onto the
// given shard (routing is a pure key hash, so this is stable).
func keysFor(r *Router, shard, count int) [][]byte {
	var out [][]byte
	for i := 0; len(out) < count; i++ {
		k := []byte(fmt.Sprintf("gk%07d", i))
		if r.ShardFor(k) == shard {
			out = append(out, k)
		}
	}
	return out
}

// TestOpenGovernedNilIsStatic proves the nil-governor path is the static
// configuration, byte for byte: no governor state, no moved targets, and
// an identical workload leaves identical per-shard counters as a plain
// Open router.
func TestOpenGovernedNilIsStatic(t *testing.T) {
	governed, err := OpenGoverned(4, testOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer governed.Close()
	plain := mustRouter(t, 4, testOpts())
	defer plain.Close()

	if governed.gov != nil {
		t.Fatal("nil governor spawned a governor loop")
	}
	if got := governed.GovernorBudget(); got != 0 {
		t.Errorf("GovernorBudget = %d on static router", got)
	}

	val := make([]byte, 256)
	for i := 0; i < 2000; i++ {
		k := []byte(fmt.Sprintf("k%05d", i))
		if err := governed.Put(k, val); err != nil {
			t.Fatal(err)
		}
		if err := plain.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	governed.WaitIdle()
	plain.WaitIdle()

	if got := governed.GovernorMoves(); got != 0 {
		t.Errorf("GovernorMoves = %d on static router", got)
	}
	gt, pt := governed.MemTableTargets(), plain.MemTableTargets()
	for i := range gt {
		if gt[i] != pt[i] || gt[i] != testOpts().MemTableSize {
			t.Errorf("shard %d targets: governed=%d plain=%d want %d",
				i, gt[i], pt[i], testOpts().MemTableSize)
		}
	}
	gs, ps := governed.Stats(), plain.Stats()
	for i := range gs.Shards {
		g, p := gs.Shards[i], ps.Shards[i]
		if g.Puts != p.Puts || g.Flushes != p.Flushes ||
			g.Rotations != p.Rotations || g.UserBytesWritten != p.UserBytesWritten {
			t.Errorf("shard %d diverged: governed{puts=%d flushes=%d rot=%d bytes=%d} plain{puts=%d flushes=%d rot=%d bytes=%d}",
				i, g.Puts, g.Flushes, g.Rotations, g.UserBytesWritten,
				p.Puts, p.Flushes, p.Rotations, p.UserBytesWritten)
		}
	}
}

func TestOpenGovernedRejectsTinyBudget(t *testing.T) {
	// 8 KB over 4 shards = 2 KB per shard, below the 4 KB floor.
	if _, err := OpenGoverned(4, testOpts(), &GovernorOptions{Budget: 8 << 10}); err == nil {
		t.Fatal("tiny budget accepted")
	}
}

// TestGovernorAdoptedBudgetResolvesLikeExplicit: a zero Budget adopts the
// static total, and the defaults that derive from the budget (the floor,
// Budget/(4n)) follow the adopted budget exactly as they follow the same
// budget given explicitly.
func TestGovernorAdoptedBudgetResolvesLikeExplicit(t *testing.T) {
	opts := testOpts()
	opts.MemTableSize = 64 << 10
	resolved := func(g GovernorOptions) GovernorOptions {
		t.Helper()
		r, err := OpenGoverned(4, opts, &g)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return r.gov.opts
	}
	adopted := resolved(GovernorOptions{})
	explicit := resolved(GovernorOptions{Budget: 4 * opts.MemTableSize})
	if adopted != explicit {
		t.Errorf("adopted budget resolves to %+v, explicit to %+v", adopted, explicit)
	}
	if want := 4 * opts.MemTableSize / 16; adopted.FloorBytes != want {
		t.Errorf("floor %d, want Budget/(4n) = %d", adopted.FloorBytes, want)
	}
}

// TestGovernorRebalanceShiftsBudget drives rebalance() by hand — no
// ticker, fully deterministic: heat on one shard must grow its target at
// the cold shards' expense, the applied targets must never sum past the
// budget, a steady state must not thrash (hysteresis), and a heat
// reversal must move the budget again.
func TestGovernorRebalanceShiftsBudget(t *testing.T) {
	opts := testOpts() // 8 KB memtables, 32 KB chunks (target cap 128 KB)
	r := mustRouter(t, 4, opts)
	defer r.Close()
	budget := 4 * opts.MemTableSize // 32 KB: exactly the static total
	g := newGovernor(r.shards, GovernorOptions{Budget: budget}.withDefaults(4))
	// Defaults: floor = max(budget/16, 4 KB) = 4 KB, spare = 16 KB.

	hot := 0
	val := make([]byte, 512)
	writeTo := func(shard int) {
		for _, k := range keysFor(r, shard, 40) {
			if err := r.Put(k, val); err != nil {
				t.Fatal(err)
			}
		}
	}

	writeTo(hot)
	g.rebalance()
	targets := r.MemTableTargets()
	var sum int64
	for i, tgt := range targets {
		sum += tgt
		if i == hot {
			continue
		}
		if tgt != g.opts.FloorBytes {
			t.Errorf("cold shard %d target = %d, want the %d floor", i, tgt, g.opts.FloorBytes)
		}
	}
	if targets[hot] <= opts.MemTableSize {
		t.Errorf("hot shard target = %d, did not grow past %d", targets[hot], opts.MemTableSize)
	}
	if sum > budget {
		t.Errorf("targets sum %d exceeds budget %d", sum, budget)
	}
	if g.moves.Load() == 0 {
		t.Error("no retargets applied")
	}

	// Steady state: no new heat, scores decay uniformly, shares hold —
	// hysteresis must keep every target still.
	moves := g.moves.Load()
	for i := 0; i < 5; i++ {
		g.rebalance()
	}
	if got := g.moves.Load(); got != moves {
		t.Errorf("idle rebalances thrashed: moves %d → %d", moves, got)
	}

	// Reversal: heat a cold shard; within a few EWMA ticks its target
	// must overtake the old hot shard's.
	next := 2
	for i := 0; i < 3; i++ {
		writeTo(next)
		g.rebalance()
	}
	targets = r.MemTableTargets()
	sum = 0
	for _, tgt := range targets {
		sum += tgt
	}
	if targets[next] <= targets[hot] {
		t.Errorf("after reversal: new-hot target %d ≤ old-hot target %d", targets[next], targets[hot])
	}
	if sum > budget {
		t.Errorf("after reversal: targets sum %d exceeds budget %d", sum, budget)
	}
}

// TestGovernedRouterLifecycle runs a real ticking governor under
// concurrent writers and closes mid-flight — the shutdown path
// (stopGovernor before shard close) and the heat/target atomics must be
// race-clean.
func TestGovernedRouterLifecycle(t *testing.T) {
	r, err := OpenGoverned(4, testOpts(), &GovernorOptions{Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.GovernorBudget(), 4*testOpts().MemTableSize; got != want {
		t.Errorf("governor adopted budget %d, want the static total %d", got, want)
	}

	var wg sync.WaitGroup
	val := make([]byte, 512)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := r.Put([]byte(fmt.Sprintf("w%d-%05d", w, i)), val); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	r.Close()
	// Close stops the loop; a second stop must be a no-op.
	r.stopGovernor()
}

// TestOpenGovernedRefusesOneShard: a governor rebalances one budget
// across shards, so the compatibility table refuses it with fewer than
// two, before any shard opens.
func TestOpenGovernedRefusesOneShard(t *testing.T) {
	want := core.Refusal(core.OpOpen, testOpts(), 1, true)
	if want == nil {
		t.Fatal("the compatibility table accepts a governor over one shard")
	}
	for _, n := range []int{0, 1} {
		if r, err := OpenGoverned(n, testOpts(), &GovernorOptions{}); err != want {
			if r != nil {
				r.Close()
			}
			t.Errorf("OpenGoverned(%d): err = %v, want %v", n, err, want)
		}
	}
	r, err := OpenGoverned(2, testOpts(), &GovernorOptions{})
	if err != nil {
		t.Fatalf("OpenGoverned(2): %v", err)
	}
	r.Close()
}
