package pmtable

import (
	"fmt"
	"testing"

	"miodb/internal/keys"
)

// TestDrainedTableForwarding checks that every safe read on a drained
// table is forwarded to the merge result, transitively: once the result
// enters a later merge, its shared list is migrating again, and a raw
// probe through a stale snapshot's skeleton would race that migration.
func TestDrainedTableForwarding(t *testing.T) {
	dram, nv := devices()

	oldKVs := map[string]string{}
	newKVs := map[string]string{}
	for i := 0; i < 64; i++ {
		oldKVs[fmt.Sprintf("old-%03d", i)] = fmt.Sprintf("ov%d", i)
		newKVs[fmt.Sprintf("new-%03d", i)] = fmt.Sprintf("nv%d", i)
	}
	old := buildTable(t, dram, nv, 1, 1, oldKVs)
	newer := buildTable(t, dram, nv, 2, 1000, newKVs)

	m := NewMerge(newer, old)
	// As the engine does: publish the merge before it runs.
	newer.SetActiveMerge(m)
	old.SetActiveMerge(m)
	result := m.Run()
	// As the engine does on completion: forward the drained pair.
	newer.SetForward(result)
	old.SetForward(result)

	for k, want := range newKVs {
		// Old's list now holds the keys migrated in from New.
		if !old.MayContainSafe([]byte(k)) {
			t.Fatalf("MayContainSafe(%s) = false on drained old table", k)
		}
		v, _, _, ok := old.GetSafe([]byte(k))
		if !ok || string(v) != want {
			t.Fatalf("GetSafe(%s) on drained old table = %q, %v; want %q", k, v, ok, want)
		}
		// The drained New side must forward too (its list is empty).
		v, _, _, ok = newer.GetSafe([]byte(k))
		if !ok || string(v) != want {
			t.Fatalf("GetSafe(%s) on drained new table = %q, %v; want %q", k, v, ok, want)
		}
	}
	for k, want := range oldKVs {
		if !old.MayContainSafe([]byte(k)) {
			t.Fatalf("MayContainSafe(%s) = false for original key", k)
		}
		v, _, _, ok := newer.GetSafe([]byte(k))
		if !ok || string(v) != want {
			t.Fatalf("GetSafe(%s) through forwarding = %q, %v; want %q", k, v, ok, want)
		}
	}

	// A completed Merge handle (held by stale mergeEntry snapshots) must
	// delegate to the result as well.
	for k, want := range newKVs {
		v, _, _, ok := m.Get([]byte(k), keys.MaxSeq)
		if !ok || string(v) != want {
			t.Fatalf("Merge.Get(%s) after completion = %q, %v; want %q", k, v, ok, want)
		}
	}

	// Forwarding must chain: merge the result with a third table and
	// check that reads through the original skeletons still land.
	thirdKVs := map[string]string{}
	for i := 0; i < 32; i++ {
		thirdKVs[fmt.Sprintf("tri-%03d", i)] = fmt.Sprintf("tv%d", i)
	}
	third := buildTable(t, dram, nv, 3, 2000, thirdKVs)
	m2 := NewMerge(third, result)
	third.SetActiveMerge(m2)
	result.SetActiveMerge(m2)
	result2 := m2.Run()
	third.SetForward(result2)
	result.SetForward(result2)

	for k, want := range thirdKVs {
		if !old.MayContainSafe([]byte(k)) {
			t.Fatalf("chained MayContainSafe(%s) = false", k)
		}
		v, _, _, ok := old.GetSafe([]byte(k))
		if !ok || string(v) != want {
			t.Fatalf("chained GetSafe(%s) = %q, %v; want %q", k, v, ok, want)
		}
	}
}

// TestMergeORsIntoOldFilter: a zero-copy merge ORs the New table's filter
// into the Old table's in place and hands the result that same filter, so
// the drained Old skeleton's raw probe covers every key its list holds,
// the migrated ones included.
func TestMergeORsIntoOldFilter(t *testing.T) {
	dram, nv := devices()
	oldKVs := map[string]string{}
	newKVs := map[string]string{}
	for i := 0; i < 64; i++ {
		oldKVs[fmt.Sprintf("old-%03d", i)] = "ov"
		newKVs[fmt.Sprintf("new-%03d", i)] = "nv"
	}
	old := buildTable(t, dram, nv, 1, 1, oldKVs)
	newer := buildTable(t, dram, nv, 2, 1000, newKVs)
	oldFilter := old.Filter()

	result := NewMerge(newer, old).Run()
	if result.Filter() != oldFilter || old.Filter() != oldFilter {
		t.Fatal("the merge result does not share the Old table's filter")
	}
	for _, kvs := range []map[string]string{oldKVs, newKVs} {
		for k := range kvs {
			if !old.MayContain([]byte(k)) {
				t.Fatalf("drained Old table's raw MayContain(%s) = false", k)
			}
		}
	}
	if got, want := oldFilter.Keys(), len(oldKVs)+len(newKVs); got != want {
		t.Fatalf("merged filter counts %d keys, want %d", got, want)
	}
}
