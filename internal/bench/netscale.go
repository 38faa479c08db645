package bench

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"miodb/internal/client"
	"miodb/internal/histogram"
	"miodb/internal/server"
)

// netArm is one cell of the netscale sweep: how many TCP connections,
// and how many requests each keeps in flight (its pipeline window).
// depth=1 is the ablation arm — strict request/response lockstep, the
// pre-pipelining protocol's behavior on the new server.
type netArm struct {
	conns, depth int
}

// netScaleArms is the default sweep: a window sweep at 256 connections
// (1 → 64, where 1 is the no-pipelining ablation) crossed with a
// connection sweep at window 16 (64 → 512). Tests shrink this.
var netScaleArms = []netArm{
	{64, 16},
	{256, 1},
	{256, 4},
	{256, 16},
	{256, 64},
	{512, 16},
}

// netScaleReps repetitions per cell, reported best + median.
var netScaleReps = 3

// netScaleRep drives one timed fill through the network stack: conns
// pipelined connections to addr, depth worker goroutines per connection
// (so each connection holds ~depth requests in flight), total Puts of
// valueSize bytes split evenly across workers, uniform keys in
// [0, keySpace). Dial and teardown are outside the timed region.
func netScaleRep(addr string, conns, depth, total int, keySpace uint64, valueSize int, seed int64) (RunResult, error) {
	clients := make([]*client.Conn, conns)
	for i := range clients {
		c, err := client.Dial(addr, client.Options{Window: depth})
		if err != nil {
			for _, prev := range clients[:i] {
				prev.Close()
			}
			return RunResult{}, fmt.Errorf("dial conn %d: %w", i, err)
		}
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	// One shared immutable value set: per-worker pools at 512×64 workers
	// would cost more memory than the store under test.
	vals := make([][]byte, 64)
	for i := range vals {
		vals[i] = dbValue(uint64(i), 1, valueSize)
	}

	workers := conns * depth
	per := total / workers
	rem := total - per*workers
	h := histogram.New()
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	start := time.Now()
	for ci, c := range clients {
		for d := 0; d < depth; d++ {
			w := ci*depth + d
			n := per
			if w < rem {
				n++
			}
			if n == 0 {
				continue
			}
			wg.Add(1)
			go func(c *client.Conn, w, n int) {
				defer wg.Done()
				choose := Uniform.chooser(keySpace, seed+int64(w)*7919)
				for i := 0; i < n; i++ {
					k := dbKey(choose.Choose(keySpace))
					v := vals[(w+i)%len(vals)]
					t0 := time.Now()
					if err := c.Put(k, v); err != nil {
						errCh <- fmt.Errorf("worker %d: %w", w, err)
						return
					}
					h.Record(time.Since(t0))
				}
			}(c, w, n)
		}
	}
	wg.Wait()
	dur := time.Since(start)
	select {
	case err := <-errCh:
		return RunResult{}, err
	default:
	}
	return finishRun(int64(total), dur, h, nil), nil
}

// NetScale is the network front-end experiment behind the pipelined
// protocol: loopback fill throughput and latency vs connections ×
// pipeline window, against one MioDB server whose cross-connection
// batcher merges every connection's writes into shared batch commits.
// The window=1 arm is the ablation (one request in flight per
// connection, as a non-pipelined client behaves), and a local 8-writer
// ConcurrentFill reference shows what the engine alone achieves
// without the network — its group-size column is the comparison the
// server-side batcher has to beat.
func NetScale(p Params) (*Report, error) {
	p = p.norm()
	r := NewReport("netscale", "Pipelined network front end: loopback fill vs conns × window", p.Out)
	const valueSize = 128
	base := int(24000 * p.Scale)
	if base < 4000 {
		base = 4000
	}
	reps := netScaleReps

	jr := NewJSONReport("netscale", map[string]interface{}{
		"store":      "miodb",
		"value_size": valueSize,
		"reps":       reps,
		"base_ops":   base,
		"scale":      p.Scale,
	})

	results := make([]netArmResult, 0, len(netScaleArms))
	for _, arm := range netScaleArms {
		// Keep at least a few ops per worker so deep-window arms actually
		// fill their pipelines instead of measuring dial/teardown edges.
		n := base
		if min := arm.conns * arm.depth * 4; n < min {
			n = min
		}
		ar := netArmResult{arm: arm, ops: n}
		var runs []RunResult
		for rep := 0; rep < reps; rep++ {
			s, err := OpenStore(Config{Kind: MioDB, Simulate: true})
			if err != nil {
				return nil, err
			}
			srv := server.NewWithOptions(s, server.Options{Window: 128})
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				s.Close()
				return nil, err
			}
			res, err := netScaleRep(addr.String(), arm.conns, arm.depth, n, uint64(n), valueSize, p.Seed+int64(rep))
			if err != nil {
				srv.Close()
				s.Close()
				return nil, fmt.Errorf("conns=%d window=%d: %w", arm.conns, arm.depth, err)
			}
			srv.Close()
			st := s.Stats()
			s.Close()
			runs = append(runs, res)
			ar.kiops = append(ar.kiops, res.KIOPS)
			if res.KIOPS > ar.best.KIOPS {
				ar.best = res
				ar.groupSize = st.MeanGroupSize
			}
		}
		results = append(results, ar)
		jr.AddRuns(
			fmt.Sprintf("conns=%d/window=%d", arm.conns, arm.depth),
			map[string]interface{}{"conns": arm.conns, "window": arm.depth, "ops": n},
			runs,
			map[string]float64{"mean_group_size": ar.groupSize},
		)
	}

	// Local reference: an 8-writer direct fill on the same store build —
	// no sockets, every write its own commit.
	var localRuns []RunResult
	var localBest RunResult
	localGroup := 0.0
	for rep := 0; rep < reps; rep++ {
		s, err := OpenStore(Config{Kind: MioDB, Simulate: true})
		if err != nil {
			return nil, err
		}
		res, err := ConcurrentFill(s, base, uint64(base), valueSize, p.Seed+int64(rep), 8, Uniform)
		if err != nil {
			s.Close()
			return nil, err
		}
		st := s.Stats()
		s.Close()
		localRuns = append(localRuns, res)
		if res.KIOPS > localBest.KIOPS {
			localBest = res
			localGroup = st.MeanGroupSize
		}
	}
	jr.AddRuns("local/writers=8",
		map[string]interface{}{"writers": 8, "ops": base, "network": false},
		localRuns,
		map[string]float64{"mean_group_size": localGroup},
	)

	rows := [][]string{}
	for _, ar := range results {
		l := ar.best.Latency
		rows = append(rows, []string{
			fmt.Sprintf("%d", ar.arm.conns), fmt.Sprintf("%d", ar.arm.depth),
			f1(ar.best.KIOPS), f1(median(ar.kiops)),
			usec(l.P50), usec(l.P99), usec(l.P999), usec(l.Max),
			f2(ar.groupSize),
		})
	}
	l := localBest.Latency
	rows = append(rows, []string{
		"local×8", "-",
		f1(localBest.KIOPS), f1(median(kiopsOf(localRuns))),
		usec(l.P50), usec(l.P99), usec(l.P999), usec(l.Max),
		f2(localGroup),
	})
	r.Table([]string{"conns", "window", "best-KIOPS", "median-KIOPS", "p50-µs", "p99-µs", "p99.9-µs", "max-µs", "group-size"}, rows)
	r.Printf("(%d B values, uniform keys, ≥%d puts per arm scaled to fill deep windows, best of %d runs; group-size = mean ops per store-level commit; local×8 = PR 1's 8 direct writers, no network)", valueSize, base, reps)

	// Headline: pipelining speedup at the largest conn count that has
	// both a window=1 ablation and a window≥16 arm.
	speedup, atConns := netSpeedup(results)
	if atConns > 0 {
		r.Printf("pipelining speedup at %d conns (window≥16 vs window=1): %.2f×", atConns, speedup)
		jr.Note(fmt.Sprintf("speedup_conns%d=%.3f", atConns, speedup))
	}
	r.Printf("shape: at window=1 every request pays a full syscall round trip on both sides, so throughput is capped by per-op socket costs no matter how many connections pile up. Raising the window lets the client writer coalesce many requests per write() and the server writer many responses — and the cross-connection batcher turns concurrent singles into large shared batch commits (group-size far above the local 8-writer reference, whose every write commits alone). Tails grow with depth (requests queue behind their own window); the win is throughput per connection, not per-request latency.")

	if p.JSONDir != "" {
		path := filepath.Join(p.JSONDir, "BENCH_netscale.json")
		if err := jr.Write(path); err != nil {
			return nil, fmt.Errorf("write %s: %w", path, err)
		}
		r.Printf("wrote %s", path)
	}
	return r, nil
}

// netArmResult is one swept cell's summary.
type netArmResult struct {
	arm       netArm
	best      RunResult
	kiops     []float64
	groupSize float64
	ops       int
}

// netSpeedup finds best-KIOPS(window≥16)/best-KIOPS(window=1) at the
// largest connection count carrying both arms, returning the ratio and
// that connection count (0 if no conn count has both).
func netSpeedup(results []netArmResult) (float64, int) {
	bestConns := 0
	var base, piped float64
	for _, c := range uniqueConns(results) {
		var w1, wn float64
		for _, ar := range results {
			if ar.arm.conns != c {
				continue
			}
			if ar.arm.depth == 1 && ar.best.KIOPS > w1 {
				w1 = ar.best.KIOPS
			}
			if ar.arm.depth >= 16 && ar.best.KIOPS > wn {
				wn = ar.best.KIOPS
			}
		}
		if w1 > 0 && wn > 0 && c > bestConns {
			bestConns, base, piped = c, w1, wn
		}
	}
	if bestConns == 0 {
		return 0, 0
	}
	return piped / base, bestConns
}

func uniqueConns(results []netArmResult) []int {
	seen := map[int]bool{}
	out := []int{}
	for _, ar := range results {
		if !seen[ar.arm.conns] {
			seen[ar.arm.conns] = true
			out = append(out, ar.arm.conns)
		}
	}
	return out
}

func kiopsOf(runs []RunResult) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.KIOPS
	}
	return out
}
