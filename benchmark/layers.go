package main

import (
	"fmt"

	"miodb/internal/nvm"
)

// perLayer lists the single-layer metrics (layer = module name). Source
// (c) is a counter the engine already exposes, differenced over the
// measured interval; (s) a span the harness put around its own call into
// core or client; (r) the layer replay or a probe. A metric a workload
// never exercises reads 0 there.
var perLayer = []metricDef{
	// driver: diagnostics too noisy, or too workload-specific, for the
	// end-to-end table.
	{name: "driver.ack_ops_per_s", unit: "ops/s", better: "higher", what: "(s) ops ÷ time to the last ack, before the drain"},
	{name: "driver.drain_s", unit: "s", better: "lower", what: "(s) last ack until the store is idle"},
	{name: "driver.cpu_us_per_op", unit: "us", better: "lower", what: "(s) process user+sys CPU from first op until idle ÷ ops, foreground and background"},
	{name: "driver.op_p99_us", unit: "us", better: "lower", what: "(s) p99 over all ops of the mix, closed loop"},
	{name: "driver.put_p50_us", unit: "us", better: "lower", what: "(s) per-Put latency at the caller (wire-mixed: the open loop, from due time)"},
	{name: "driver.put_p99_us", unit: "us", better: "lower"},
	{name: "driver.put_p999_us", unit: "us", better: "lower"},
	{name: "driver.get_p50_us", unit: "us", better: "lower", what: "(s) per-Get latency at the caller (wire-mixed: the open loop, from due time)"},
	{name: "driver.get_p99_us", unit: "us", better: "lower"},
	{name: "driver.get_p999_us", unit: "us", better: "lower"},
	{name: "driver.scan_p50_us", unit: "us", better: "lower", what: "(s) per-Scan latency, whole scan"},
	{name: "driver.scan_p99_us", unit: "us", better: "lower"},
	{name: "driver.scan_p999_us", unit: "us", better: "lower"},
	{name: "driver.gen_lag_p99_us", unit: "us", better: "lower", what: "(s) open loop: how late the generator sent a request after it was due"},
	{name: "driver.trace_overhead_frac", unit: "ratio", better: "lower", what: "(s) traced wall ÷ untraced wall − 1"},
	{name: "driver.host_spin_ms", unit: "ms", better: "lower", what: "(s) a fixed ALU loop: how fast the host was during this run"},

	{name: "core.rotations", unit: "count", better: "lower", what: "(c)"},
	{name: "core.flushes", unit: "count", better: "lower", what: "(c)"},
	{name: "core.flush_busy_ms", unit: "ms", better: "lower", what: "(c)"},
	{name: "core.flush_bytes", unit: "B", better: "lower", what: "(c)"},
	{name: "core.compactions", unit: "count", better: "lower", what: "(c)"},
	{name: "core.compaction_busy_ms", unit: "ms", better: "lower", what: "(c) summed over the per-level threads"},
	{name: "core.nodes_moved", unit: "count", better: "lower", what: "(c) nodes relinked by zero-copy merges plus nodes copied by lazy copies"},
	{name: "core.mean_group_size", unit: "ratio", better: "higher", what: "(c) writes per commit group"},
	{name: "core.interval_stalls", unit: "count", better: "lower", what: "(c)"},
	{name: "core.interval_stall_ms", unit: "ms", better: "lower", what: "(c)"},
	{name: "core.cumulative_stall_ms", unit: "ms", better: "lower", what: "(c)"},
	{name: "core.versions_swept", unit: "count", better: "lower", what: "(c)"},
	{name: "core.device_retries", unit: "count", better: "lower", what: "(c)"},
	{name: "core.background_errors", unit: "count", better: "lower", what: "(c)"},
	{name: "core.background_cpu_frac", unit: "ratio", better: "lower", what: "(s) 1 − Σ foreground op time ÷ process CPU; in-process workloads"},
	{name: "core.peak_pending_imms", unit: "count", better: "lower", what: "(s) sampled each ms in the traced run"},
	{name: "core.peak_l0_tables", unit: "count", better: "lower", what: "(s) sampled each ms in the traced run"},
	{name: "core.recover_ms", unit: "ms", better: "lower", what: "(s) core.Recover after CrashForTest; fill-small"},
	{name: "core.put_unattributed_ns", unit: "ns", better: "lower", what: "ledger: Put p50 − Σ replayed layers"},
	{name: "core.get_unattributed_ns", unit: "ns", better: "lower", what: "ledger: Get p50 − Σ replayed layers"},
	{name: "core.scan_entry_unattributed_ns", unit: "ns", better: "lower", what: "ledger: (Scan p50 − replayed seek) ÷ entries − replayed next"},
	{name: "core.bg_unattributed_us_per_op", unit: "us", better: "lower", what: "ledger: background CPU per op − Σ replayed flush, merge, absorb"},

	{name: "wal.append_ns", unit: "ns", better: "lower", what: "(r)"},
	{name: "wal.append_b_per_op", unit: "B", better: "lower", what: "(r) Go heap bytes per Append"},
	{name: "wal.append_batch_ns_per_rec", unit: "ns", better: "lower", what: "(r) AppendBatch of 32 records"},
	{name: "wal.replay_ns_per_rec", unit: "ns", better: "lower", what: "(r)"},
	{name: "wal.bytes_per_user_byte", unit: "ratio", better: "lower", what: "(r)"},

	{name: "memtable.add_ns", unit: "ns", better: "lower", what: "(r)"},
	{name: "memtable.get_ns", unit: "ns", better: "lower", what: "(r)"},
	{name: "memtable.allocs_per_add", unit: "count", better: "lower", what: "(r) Go heap objects"},
	{name: "skiplist.insert_ns", unit: "ns", better: "lower", what: "(r) at memtable size"},
	{name: "skiplist.get_ns", unit: "ns", better: "lower", what: "(r) at memtable size"},
	{name: "skiplist.iter_next_ns", unit: "ns", better: "lower", what: "(r)"},
	{name: "keys.compare_ns", unit: "ns", better: "lower", what: "(r)"},
	{name: "vaddr.alloc_ns", unit: "ns", better: "lower", what: "(r)"},

	{name: "nvm.bytes_written", unit: "B", better: "lower", what: "(c)"},
	{name: "nvm.bytes_read", unit: "B", better: "lower", what: "(c)"},
	{name: "nvm.writes", unit: "count", better: "lower", what: "(c)"},
	{name: "nvm.reads", unit: "count", better: "lower", what: "(c)"},
	{name: "dram.bytes_written", unit: "B", better: "lower", what: "(c)"},
	{name: "nvm.modeled_write_ms", unit: "ms", better: "lower", what: "computed: counters × nvm.NVMProfile(), the device time Simulate would inject"},
	{name: "nvm.modeled_read_ms", unit: "ms", better: "lower", what: "computed: counters × nvm.NVMProfile()"},

	{name: "pmtable.flush_ns_per_entry", unit: "ns", better: "lower", what: "(r)"},
	{name: "pmtable.flush_nvm_writes", unit: "count", better: "lower", what: "(r) device writes per flush: the one-piece copy plus its pointer swizzles"},
	{name: "pmtable.merge_ns_per_node", unit: "ns", better: "lower", what: "(r)"},
	{name: "pmtable.merge_nvm_bytes_per_node", unit: "B", better: "lower", what: "(r)"},
	{name: "pmtable.absorb_ns_per_node", unit: "ns", better: "lower", what: "(r)"},
	{name: "pmtable.table_get_ns", unit: "ns", better: "lower", what: "(r) Table.GetSafe"},
	{name: "pmtable.repo_get_ns", unit: "ns", better: "lower", what: "(r) Repository.Get"},
	{name: "pmtable.safeiter_next_ns", unit: "ns", better: "lower", what: "(r)"},
	{name: "pmtable.repo_garbage_frac", unit: "ratio", better: "lower", what: "(r) superseded share of the replayed repository's bytes"},

	{name: "bloom.probe_ns", unit: "ns", better: "lower", what: "(r)"},
	{name: "bloom.add_ns", unit: "ns", better: "lower", what: "(r)"},
	{name: "bloom.probes_per_get", unit: "ratio", better: "lower", what: "(c)"},
	{name: "bloom.skip_frac", unit: "ratio", better: "higher", what: "(c) probes answered \"absent\""},
	{name: "bloom.false_positive_rate", unit: "ratio", better: "lower", what: "(c)"},

	{name: "iterx.seek_ns", unit: "ns", better: "lower", what: "(r) Visible over Merging over every source"},
	{name: "iterx.merge_next_ns", unit: "ns", better: "lower", what: "(r) the k-way heap alone"},
	{name: "iterx.visible_next_ns", unit: "ns", better: "lower", what: "(r)"},

	{name: "vlog.append_ns", unit: "ns", better: "lower", what: "(r)"},
	{name: "vlog.read_ns", unit: "ns", better: "lower", what: "(r)"},
	{name: "vlog.appended_bytes", unit: "B", better: "lower", what: "(c)"},
	{name: "vlog.gc_relocated_bytes", unit: "B", better: "lower", what: "(c)"},
	{name: "vlog.gc_segments_reclaimed", unit: "count", better: "higher", what: "(c)"},
	{name: "vlog.dead_ratio", unit: "ratio", better: "lower", what: "(c) after the final drain"},
	{name: "vlog.gc_busy_ms", unit: "ms", better: "lower", what: "(s) time inside RunValueLogGC during the drain"},

	{name: "server.codec_encode_ns", unit: "ns", better: "lower", what: "(r) AppendTaggedRequest"},
	{name: "server.codec_decode_ns", unit: "ns", better: "lower", what: "(r) ReadTaggedResponse on a captured frame"},
	{name: "server.noop_rtt_p50_us", unit: "us", better: "lower", what: "(r) the closed loop against the stub store"},
	{name: "server.noop_cpu_us_per_op", unit: "us", better: "lower", what: "(r) the closed loop against the stub store"},
	{name: "server.mean_commit_size", unit: "ratio", better: "higher", what: "(c) writes per store commit under the batcher"},
	{name: "client.allocs_per_op", unit: "count", better: "lower", what: "(r) Go heap objects per round trip against the stub store, both ends"},

	{name: "histogram.record_ns", unit: "ns", better: "lower", what: "(r)"},
	{name: "stats.snapshot_us", unit: "us", better: "lower", what: "(r)"},
}

// perCallNs is a replayed layer's cost per call; perUnitNs per entry or
// node. A layer the measured stream never called falls back to the
// preload's calls.
func (r *replayer) pick(l layer) layerStat {
	if st := r.stat[l]; st.calls > 0 {
		return st
	}
	return r.pre[l]
}

func (r *replayer) perCallNs(l layer) float64 {
	if st := r.pick(l); st.calls > 0 {
		return float64(st.ns) / float64(st.calls)
	}
	return 0
}

func (r *replayer) perUnitNs(l layer) float64 {
	if st := r.pick(l); st.units > 0 {
		return float64(st.ns) / float64(st.units)
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceInputs is what the per-layer values are computed from.
type traceInputs struct {
	s        *spec
	untraced *trialResult // end-to-end reference
	traced   *trialResult // counters and sampled peaks
	rp       *replayer
	probes   map[string]float64 // leaf probes, wire probes, noop wire
	spinMs   float64
}

// layerValues computes every per-layer metric and the ledger's lines.
func layerValues(in traceInputs) (map[string]float64, []string) {
	u, tr, rp := in.untraced, in.traced, in.rp
	v := map[string]float64{}
	for name, x := range in.probes {
		v[name] = x
	}

	// Per-kind latencies are the closed loop's at the caller, except on
	// wire-mixed, where they are the open loop's from due time.
	lat := u.lat
	if in.s.wire {
		lat = u.openLat
	}

	// driver
	v["driver.ack_ops_per_s"] = ratio(float64(u.ops), u.ackS)
	v["driver.drain_s"] = u.wallS - u.ackS
	v["driver.cpu_us_per_op"] = ratio(u.cpuS*1e6, float64(u.ops))
	v["driver.op_p99_us"] = u.latAll.p99
	for k := opKind(0); k < numKinds; k++ {
		v["driver."+kindNames[k]+"_p50_us"] = lat[k].p50
		v["driver."+kindNames[k]+"_p99_us"] = lat[k].p99
		v["driver."+kindNames[k]+"_p999_us"] = lat[k].p999
	}
	v["driver.gen_lag_p99_us"] = u.genLag.p99
	v["driver.trace_overhead_frac"] = ratio(tr.wallS, u.wallS) - 1
	v["driver.host_spin_ms"] = in.spinMs

	// core, nvm, bloom, vlog: the engine's counters over the measured
	// interval of the traced trial.
	a, b := tr.before, tr.after
	ds := func(f func(c *counters) float64) float64 { return f(&b) - f(&a) }
	v["core.rotations"] = ds(func(c *counters) float64 { return float64(c.st.Rotations) })
	v["core.flushes"] = ds(func(c *counters) float64 { return float64(c.st.Flushes) })
	v["core.flush_busy_ms"] = ds(func(c *counters) float64 { return c.st.FlushTime.Seconds() * 1e3 })
	v["core.flush_bytes"] = ds(func(c *counters) float64 { return float64(c.st.FlushBytes) })
	v["core.compactions"] = ds(func(c *counters) float64 { return float64(c.st.Compactions) })
	v["core.compaction_busy_ms"] = ds(func(c *counters) float64 { return c.st.CompactionTime.Seconds() * 1e3 })
	last := len(b.compaction) - 1
	moved := func(c *counters, from, to int) float64 {
		var n int64
		for l := from; l <= to && l < len(c.compaction); l++ {
			n += c.compaction[l].NodesMoved
		}
		return float64(n)
	}
	merged := ds(func(c *counters) float64 { return moved(c, 0, last-1) })
	absorbed := ds(func(c *counters) float64 { return moved(c, last, last) })
	v["core.nodes_moved"] = merged + absorbed
	groups := ds(func(c *counters) float64 { return float64(c.st.WriteGroups) })
	grouped := ds(func(c *counters) float64 { return float64(c.st.GroupedWrites) })
	v["core.mean_group_size"] = ratio(grouped, groups)
	if in.s.wire {
		v["server.mean_commit_size"] = ratio(grouped, groups)
	}
	v["core.interval_stalls"] = ds(func(c *counters) float64 { return float64(c.st.IntervalStalls) })
	v["core.interval_stall_ms"] = ds(func(c *counters) float64 { return c.st.IntervalStall.Seconds() * 1e3 })
	v["core.cumulative_stall_ms"] = ds(func(c *counters) float64 { return c.st.CumulativeStall.Seconds() * 1e3 })
	v["core.versions_swept"] = ds(func(c *counters) float64 { return float64(c.st.VersionsSwept) })
	v["core.device_retries"] = ds(func(c *counters) float64 { return float64(c.st.DeviceRetries) })
	v["core.background_errors"] = ds(func(c *counters) float64 { return float64(c.st.BackgroundErrors) })
	v["core.peak_pending_imms"] = float64(tr.peakImms)
	v["core.peak_l0_tables"] = float64(tr.peakL0)
	v["core.recover_ms"] = u.recoverMs

	v["nvm.bytes_written"] = ds(func(c *counters) float64 { return float64(c.nvm.BytesWritten) })
	v["nvm.bytes_read"] = ds(func(c *counters) float64 { return float64(c.nvm.BytesRead) })
	v["nvm.writes"] = ds(func(c *counters) float64 { return float64(c.nvm.Writes) })
	v["nvm.reads"] = ds(func(c *counters) float64 { return float64(c.nvm.Reads) })
	v["dram.bytes_written"] = ds(func(c *counters) float64 { return float64(c.dram.BytesWritten) })
	p := nvm.NVMProfile()
	v["nvm.modeled_write_ms"] = (v["nvm.writes"]*float64(p.WriteLatency) + v["nvm.bytes_written"]*p.WriteNanosPerByte) / 1e6
	v["nvm.modeled_read_ms"] = (v["nvm.reads"]*float64(p.ReadLatency) + v["nvm.bytes_read"]*p.ReadNanosPerByte) / 1e6

	gets := ds(func(c *counters) float64 { return float64(c.st.Gets) })
	probes := ds(func(c *counters) float64 { return float64(c.st.BloomProbes) })
	skips := ds(func(c *counters) float64 { return float64(c.st.BloomSkips) })
	fps := ds(func(c *counters) float64 { return float64(c.st.BloomFalsePositives) })
	v["bloom.probes_per_get"] = ratio(probes, gets)
	v["bloom.skip_frac"] = ratio(skips, probes)
	v["bloom.false_positive_rate"] = ratio(fps, probes-skips)

	v["vlog.appended_bytes"] = ds(func(c *counters) float64 { return float64(c.vlog.AppendedBytes) })
	v["vlog.gc_relocated_bytes"] = ds(func(c *counters) float64 { return float64(c.vlog.GCRelocatedBytes) })
	v["vlog.gc_segments_reclaimed"] = ds(func(c *counters) float64 { return float64(c.vlog.GCSegmentsReclaimed) })
	v["vlog.dead_ratio"] = b.vlog.DeadRatio()
	v["vlog.gc_busy_ms"] = tr.vlogGCBusy.Seconds() * 1e3

	// The replay's in-order layers.
	v["wal.append_ns"] = rp.perCallNs(lWalAppend)
	v["memtable.add_ns"] = rp.perCallNs(lMemAdd)
	v["memtable.get_ns"] = rp.perCallNs(lMemGet)
	v["pmtable.flush_ns_per_entry"] = rp.perUnitNs(lFlush)
	v["pmtable.merge_ns_per_node"] = rp.perUnitNs(lMerge)
	v["pmtable.absorb_ns_per_node"] = rp.perUnitNs(lAbsorb)
	v["pmtable.table_get_ns"] = rp.perCallNs(lTableGet)
	v["pmtable.repo_get_ns"] = rp.perCallNs(lRepoGet)
	v["iterx.seek_ns"] = rp.perCallNs(lSeek)
	v["iterx.visible_next_ns"] = rp.perCallNs(lVisibleNext)
	v["vlog.append_ns"] = rp.perCallNs(lVlogAppend)
	v["vlog.read_ns"] = rp.perCallNs(lVlogRead)
	fc := rp.flush
	if fc.flushes == 0 {
		fc = rp.preFlush
	}
	v["pmtable.flush_nvm_writes"] = ratio(float64(fc.flushNVMWrites), float64(fc.flushes))
	v["pmtable.merge_nvm_bytes_per_node"] = ratio(float64(fc.mergeNVMBytes), float64(rp.pick(lMerge).units))
	g, live := float64(rp.repo.GarbageBytes()), float64(rp.repo.UserBytes())
	v["pmtable.repo_garbage_frac"] = ratio(g, g+live)

	// The ledger: each layer's cost per user op is its replayed cost per
	// call × calls per op. Calls per op come from the engine's own counts
	// where Stats has them [engine], from the replay where it has not
	// [replay], and are 1 or the scan length by construction [fixed].
	var out []string
	line := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	type item struct {
		name           string
		ns, perOp      float64
		countedBy, aux string
	}
	section := func(title, unit string, e2e float64, items []item, metric string, scale float64) {
		line("  %s", title)
		var sum float64
		for _, it := range items {
			cost := it.ns * it.perOp
			sum += cost
			line("    %-28s %10.1f ns × %7.3f per op [%s] = %10.1f ns%s", it.name, it.ns, it.perOp, it.countedBy, cost, it.aux)
		}
		line("    %-28s %10.1f ns", "sum of layers", sum)
		line("    %-28s %10.1f ns", "end to end", e2e)
		line("    %-28s %10.1f ns  → %s = %.3f %s", "unattributed remainder", e2e-sum, metric, (e2e-sum)/scale, unit)
		v[metric] = (e2e - sum) / scale
	}
	separated := 0.0
	if in.s.valueLog {
		separated = 1
	}
	front := 0.0 // the wire front end, as the stub store measures it
	if in.s.wire {
		front = v["server.noop_rtt_p50_us"] * 1e3
	}
	frontItem := item{"server+client (noop rtt)", front, 1, "replay", ""}

	if lat[opPut].n > 0 {
		items := []item{
			{"wal.Append", v["wal.append_ns"], 1, "fixed", ""},
			{"memtable.Add", v["memtable.add_ns"], 1, "fixed", fmt.Sprintf("  (skiplist.Insert %.0f, vaddr.Alloc %.0f)", v["skiplist.insert_ns"], v["vaddr.alloc_ns"])},
			{"vlog.Append", v["vlog.append_ns"], separated, "fixed", ""},
			{"histogram.Record", v["histogram.record_ns"], 1, "fixed", ""},
		}
		if in.s.wire {
			items = append(items, frontItem)
		}
		section("Put, ns per op (caller p50)", "ns", lat[opPut].p50*1e3, items, "core.put_unattributed_ns", 1)
	} else {
		line("  Put: none in this workload")
	}
	if lat[opGet].n > 0 {
		rgets := float64(rp.stat[lMemGet].calls)
		items := []item{
			{"memtable.Get", v["memtable.get_ns"], 1, "replay", ""},
			{"bloom.MayContain", v["bloom.probe_ns"], v["bloom.probes_per_get"], "engine", ""},
			{"pmtable.Table.GetSafe", v["pmtable.table_get_ns"], ratio(probes-skips, gets), "engine", ""},
			{"pmtable.Repository.Get", v["pmtable.repo_get_ns"], ratio(float64(rp.stat[lRepoGet].calls), rgets), "replay", ""},
			{"vlog.Read", v["vlog.read_ns"], separated, "fixed", ""},
			{"histogram.Record", v["histogram.record_ns"], 1, "fixed", ""},
		}
		if in.s.wire {
			items = append(items, frontItem)
		}
		section("Get, ns per op (caller p50)", "ns", lat[opGet].p50*1e3, items, "core.get_unattributed_ns", 1)
	} else {
		line("  Get: none in this workload")
	}
	if lat[opScan].n > 0 {
		n := float64(in.s.scanLen)
		items := []item{
			{"iterx seek", v["iterx.seek_ns"], 1, "fixed", ""},
			{"iterx.Visible.Next", v["iterx.visible_next_ns"], n, "fixed", fmt.Sprintf("  (Merging.Next %.0f, SafeIterator.Next %.0f)", v["iterx.merge_next_ns"], v["pmtable.safeiter_next_ns"])},
		}
		section(fmt.Sprintf("Scan of %d, ns per scan (caller p50); remainder reported per entry", in.s.scanLen), "ns per entry",
			lat[opScan].p50*1e3, items, "core.scan_entry_unattributed_ns", n)
	} else {
		line("  Scan: none in this workload")
	}

	// Background: process CPU the foreground calls do not account for.
	ops := float64(u.ops)
	var fgNs float64
	for k := opKind(0); k < numKinds; k++ {
		fgNs += u.lat[k].sumNs
	}
	if in.s.wire {
		// A caller's latency over the wire is mostly waiting, not CPU, so
		// foreground and background cannot be told apart at the caller.
		line("  Background: not separable from the caller's side of a socket")
	} else {
		v["core.background_cpu_frac"] = 1 - ratio(fgNs, u.cpuS*1e9)
		bgNs := (u.cpuS*1e9 - fgNs) / ops
		tops := float64(tr.ops)
		puts := ds(func(c *counters) float64 { return float64(c.st.Puts) })
		items := []item{
			{"pmtable.Flush (per entry)", v["pmtable.flush_ns_per_entry"], puts / tops, "engine", fmt.Sprintf("  (bloom.Add %.0f)", v["bloom.add_ns"])},
			{"pmtable.Merge.Run (per node)", v["pmtable.merge_ns_per_node"], merged / tops, "engine", ""},
			{"Repository.Absorb (per node)", v["pmtable.absorb_ns_per_node"], absorbed / tops, "engine", ""},
		}
		section("Background, CPU ns per op (process CPU − Σ foreground op time)", "us", bgNs, items, "core.bg_unattributed_us_per_op", 1e3)
	}
	return v, out
}

func printLayers(in traceInputs, v map[string]float64, ledger []string) {
	fmt.Printf("%s: per-layer metrics (one untraced trial, one traced trial, the layer replay)\n", in.s.name)
	for _, d := range perLayer {
		fmt.Printf("  %-34s %16.4f %-6s %s\n", d.name, v[d.name], d.unit, d.what)
	}
	fmt.Println("ledger: replayed cost per call × calls per op; timings are CPU with Simulate off, modeled device time is nvm.modeled_*_ms")
	for _, l := range ledger {
		fmt.Println(l)
	}
}
