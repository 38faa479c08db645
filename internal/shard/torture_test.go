package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"miodb/internal/core"
	"miodb/internal/nvm"
)

// tortureOp is one operation of a cross-shard batch, kept alongside the
// model so a batch cut off by an injected crash can be verified per
// shard after recovery.
type tortureOp struct {
	key, val string
	del      bool
}

// TestShardTortureCrossShardBatches is the sharded analogue of the core
// crash-torture harness, aimed at the router's weakest contractual
// point: a batch split across shards when one shard's device dies
// mid-commit. Every cycle writes randomized cross-shard batches with a
// crash plan armed on one victim shard, simulates a simultaneous power
// failure, recovers all shards, and verifies:
//
//   - every operation of every acknowledged batch is present on every
//     shard (no acked write lost anywhere);
//   - the one unacknowledged batch resolved per shard to all-or-nothing:
//     each shard's slice is either fully visible or fully absent, never
//     a partial slice (it was one WAL append);
//   - slices of the unacked batch that landed on healthy (non-victim)
//     shards are always present — only the victim's slice may vanish;
//   - each shard's structural invariants and region accounting hold.
//
// The seed fixes the workload and the fault plans, not the goroutine
// schedule: background writes share the budgeted device, so a failing
// seed need not replay.
func TestShardTortureCrossShardBatches(t *testing.T) {
	const (
		shards   = 3
		keyspace = 400
		seed     = 1
	)
	cycles, batches := 20, 80
	if testing.Short() {
		cycles, batches = 6, 50
	}
	opts := testOpts()
	rng := rand.New(rand.NewSource(seed))
	r := mustRouter(t, shards, opts)
	defer func() {
		if r != nil {
			r.Close()
		}
	}()

	model := map[string]string{} // acked live values
	ever := map[string]bool{}    // every key ever acked
	var acked, uncertain, resurrected int

	for cycle := 0; cycle < cycles; cycle++ {
		// Arm a crash plan on one victim shard for most cycles; the rest
		// crash clean (background work dropped mid-flight on all shards).
		victim := rng.Intn(shards)
		_, dev := r.Shard(victim).Devices()
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			dev.SetFaultPlan(nvm.NewFaultPlan(rng.Int63()).
				CrashAfterBytes(1 + rng.Int63n(64<<10)).TornWrites())
		case 4, 5:
			dev.SetFaultPlan(nvm.NewFaultPlan(rng.Int63()).
				CrashAfterWrites(1 + rng.Intn(300)).TornWrites())
		default:
			victim = -1
		}

		// Write phase: cross-shard batches of distinct keys until the
		// armed crash cuts an ack off (at most one pending batch).
		var pending []tortureOp
		for bi := 0; bi < batches; bi++ {
			b := &core.Batch{}
			var ops []tortureOp
			used := map[string]bool{}
			for len(ops) < 2+rng.Intn(7) {
				k := fmt.Sprintf("k%04d", rng.Intn(keyspace))
				if used[k] {
					continue
				}
				used[k] = true
				if rng.Intn(8) == 0 {
					b.Delete([]byte(k))
					ops = append(ops, tortureOp{key: k, del: true})
				} else {
					v := fmt.Sprintf("v-c%d-b%d-%s", cycle, bi, k)
					b.Put([]byte(k), []byte(v))
					ops = append(ops, tortureOp{key: k, val: v})
				}
			}
			if err := r.Write(b); err != nil {
				if victim < 0 {
					t.Fatalf("cycle %d batch %d: write failed with no fault armed: %v", cycle, bi, err)
				}
				pending = ops
				uncertain++
				break
			}
			for _, o := range ops {
				ever[o.key] = true
				if o.del {
					delete(model, o.key)
				} else {
					model[o.key] = o.val
				}
			}
			acked++
		}

		// Simultaneous power failure on every shard, then recovery.
		imgs := r.CrashForTest()
		r = nil
		for _, img := range imgs {
			img.NVM.SetFaultPlan(nil)
		}
		re, err := RecoverShards(imgs, opts)
		if err != nil {
			t.Fatalf("cycle %d: recover: %v", cycle, err)
		}
		r = re
		r.WaitIdle()
		if err := r.Err(); err != nil {
			t.Fatalf("cycle %d: recovered router degraded: %v", cycle, err)
		}

		// Acked state: every key outside the pending batch must read
		// back exactly per the model, through the router's routing.
		inPending := map[string]bool{}
		for _, o := range pending {
			inPending[o.key] = true
		}
		for k := range ever {
			if inPending[k] {
				continue
			}
			got, err := r.Get([]byte(k))
			want, live := model[k]
			switch {
			case live && (err != nil || string(got) != want):
				t.Fatalf("cycle %d: acked key %q = %q, %v (want %q)", cycle, k, got, err, want)
			case !live && err != core.ErrNotFound:
				t.Fatalf("cycle %d: deleted key %q resurrected: %q, %v", cycle, k, got, err)
			}
		}

		// Pending batch: group its ops by shard and require each slice
		// to have resolved all-or-nothing. A slice on a healthy shard
		// was acknowledged by that shard before the router returned the
		// victim's error, so it must always be the "all" case.
		if pending != nil {
			perShard := map[int][]tortureOp{}
			for _, o := range pending {
				si := r.ShardFor([]byte(o.key))
				perShard[si] = append(perShard[si], o)
			}
			for si, slice := range perShard {
				allNew, allOld := true, true
				for _, o := range slice {
					got, err := r.Get([]byte(o.key))
					if err != nil && err != core.ErrNotFound {
						t.Fatalf("cycle %d shard %d: get %q: %v", cycle, si, o.key, err)
					}
					newOK := false
					if o.del {
						newOK = err == core.ErrNotFound
					} else {
						newOK = err == nil && string(got) == o.val
					}
					want, live := model[o.key]
					oldOK := false
					if live {
						oldOK = err == nil && string(got) == want
					} else {
						oldOK = err == core.ErrNotFound
					}
					allNew = allNew && newOK
					allOld = allOld && oldOK
				}
				if !allNew && !allOld {
					t.Fatalf("cycle %d: shard %d applied a partial batch slice: %+v", cycle, si, slice)
				}
				if si != victim && !allNew {
					t.Fatalf("cycle %d: healthy shard %d lost its acked slice of the failed batch: %+v", cycle, si, slice)
				}
				if allNew && !allOld {
					resurrected++
					for _, o := range slice {
						ever[o.key] = true
						if o.del {
							delete(model, o.key)
						} else {
							model[o.key] = o.val
						}
					}
				}
			}
		}

		// Structural invariants per shard, every cycle.
		for i := 0; i < r.NumShards(); i++ {
			if err := r.Shard(i).CheckConsistency(); err != nil {
				t.Fatalf("cycle %d shard %d: %v", cycle, i, err)
			}
			if err := r.Shard(i).CheckRegionAccounting(); err != nil {
				t.Fatalf("cycle %d shard %d: %v", cycle, i, err)
			}
		}
	}
	if acked == 0 {
		t.Fatal("torture run acked no batches")
	}
	t.Logf("shard torture: %d cycles, %d acked / %d uncertain batches, %d slices resurrected, %d keys tracked",
		cycles, acked, uncertain, resurrected, len(ever))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r = nil
}

// TestShardTortureSeeds runs shorter bursts across several seeds so the
// injected crashes land in different phases of different shards.
func TestShardTortureSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: covered by TestShardTortureCrossShardBatches")
	}
	for seed := int64(2); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			opts := testOpts()
			rng := rand.New(rand.NewSource(seed))
			r := mustRouter(t, 2, opts)
			model := map[string]string{}
			for cycle := 0; cycle < 6; cycle++ {
				_, dev := r.Shard(rng.Intn(2)).Devices()
				dev.SetFaultPlan(nvm.NewFaultPlan(rng.Int63()).
					CrashAfterBytes(1 + rng.Int63n(32<<10)).TornWrites())
				var pending tortureOp
				for i := 0; i < 200; i++ {
					k := fmt.Sprintf("k%03d", rng.Intn(200))
					v := fmt.Sprintf("v%d-%d", cycle, i)
					if err := r.Put([]byte(k), []byte(v)); err != nil {
						// Unacked put: after recovery either the old or
						// the new value is legitimate.
						pending = tortureOp{key: k, val: v}
						break
					}
					model[k] = v
				}
				imgs := r.CrashForTest()
				for _, img := range imgs {
					img.NVM.SetFaultPlan(nil)
				}
				var err error
				r, err = RecoverShards(imgs, opts)
				if err != nil {
					t.Fatalf("cycle %d: %v", cycle, err)
				}
				r.WaitIdle()
				for k, want := range model {
					got, err := r.Get([]byte(k))
					if k == pending.key && err == nil && string(got) == pending.val {
						model[k] = pending.val // the unacked put beat the crash
						continue
					}
					if err != nil || string(got) != want {
						t.Fatalf("cycle %d: acked %q = %q, %v (want %q)", cycle, k, got, err, want)
					}
				}
				if pending.key != "" {
					if _, ok := model[pending.key]; !ok {
						if got, err := r.Get([]byte(pending.key)); err == nil && string(got) == pending.val {
							model[pending.key] = pending.val
						}
					}
				}
			}
			r.Close()
		})
	}
}
