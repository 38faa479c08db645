package nvm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is the base error returned by fault-plan triggered failures.
// Use IsTransient to decide whether a retry is worthwhile.
var ErrInjected = errors.New("nvm: injected device fault")

// ErrCrashed is returned once a crash trigger has fired: the device is
// gone and every subsequent operation fails persistently.
var ErrCrashed = errors.New("nvm: device crashed (injected)")

// transientErr wraps an injected fault that models a recoverable device
// condition (media retry, thermal throttle) rather than a hard failure.
type transientErr struct{ err error }

func (e transientErr) Error() string   { return e.err.Error() + " (transient)" }
func (e transientErr) Unwrap() error   { return e.err }
func (e transientErr) Transient() bool { return true }

// IsTransient reports whether err models a recoverable device condition:
// callers should retry with backoff. Persistent faults (including crash
// triggers) must instead latch degraded mode.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// WriteOutcome describes the result of gating a write through a fault
// plan. Err == nil means the write may proceed in full. With a non-nil
// Err, Torn >= 0 means the first Torn bytes still reached the media (a
// torn write): callers able to express partial persistence should apply
// exactly that prefix before surfacing Err. Torn < 0 means nothing was
// persisted.
type WriteOutcome struct {
	Err  error
	Torn int
}

// FaultStats counts what a plan has done so far.
type FaultStats struct {
	CheckedWrites, CheckedReads   int64
	InjectedWrites, InjectedReads int64
	TornBytes                     int64
	Crashed                       bool
}

// FaultPlan is an injectable fault schedule installed on a Device, the
// byte-addressable ones and a block device's (vfs.Disk) alike. A nil plan
// injects nothing. All methods are safe for concurrent use.
//
// Three trigger families compose:
//
//   - error injection: every Nth checked op and/or an independent
//     per-op probability fails. The first TransientBudget injected
//     errors are transient (retryable); the rest are persistent, unless
//     AllTransient keeps every injection retryable.
//   - torn writes: an injected write failure may report a random prefix
//     as persisted, modeling a power cut mid-line-flush.
//   - crash triggers: after N checked writes or after a byte budget is
//     exhausted, the plan "crashes": the triggering write is torn at the
//     remaining budget, OnCrash fires once, and every later op fails
//     with ErrCrashed (persistent).
type FaultPlan struct {
	mu  sync.Mutex
	rng *rand.Rand

	writeEveryN int // fail every Nth checked write (0 = off)
	writeProb   float64
	readEveryN  int
	readProb    float64

	transientBudget int // first N injections are transient
	allTransient    bool

	tornWrites bool // injected write errors report a random persisted prefix

	crashAfterWrites int   // countdown in checked writes (0 = off)
	crashAfterBytes  int64 // countdown in checked bytes (<0 = off)
	crashed          bool
	onCrash          func()

	writeDelay    time.Duration // per-checked-write brake (0 = off)
	writeDelayMin int           // brake only writes of at least this many bytes

	stats FaultStats
}

// NewFaultPlan creates an empty plan with a deterministic RNG.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{rng: rand.New(rand.NewSource(seed)), crashAfterBytes: -1}
}

// FailWritesEvery makes every nth checked write fail (n <= 0 disables).
func (p *FaultPlan) FailWritesEvery(n int) *FaultPlan {
	p.mu.Lock()
	p.writeEveryN = n
	p.mu.Unlock()
	return p
}

// FailWritesProb makes each checked write fail with probability prob.
func (p *FaultPlan) FailWritesProb(prob float64) *FaultPlan {
	p.mu.Lock()
	p.writeProb = prob
	p.mu.Unlock()
	return p
}

// FailReadsEvery makes every nth checked read fail (n <= 0 disables).
func (p *FaultPlan) FailReadsEvery(n int) *FaultPlan {
	p.mu.Lock()
	p.readEveryN = n
	p.mu.Unlock()
	return p
}

// FailReadsProb makes each checked read fail with probability prob.
func (p *FaultPlan) FailReadsProb(prob float64) *FaultPlan {
	p.mu.Lock()
	p.readProb = prob
	p.mu.Unlock()
	return p
}

// TransientFirst makes the first n injected errors transient; later ones
// are persistent.
func (p *FaultPlan) TransientFirst(n int) *FaultPlan {
	p.mu.Lock()
	p.transientBudget = n
	p.mu.Unlock()
	return p
}

// AllTransient makes every injected error transient (retryable).
func (p *FaultPlan) AllTransient() *FaultPlan {
	p.mu.Lock()
	p.allTransient = true
	p.mu.Unlock()
	return p
}

// TornWrites makes injected write failures report a random persisted
// prefix instead of losing the whole write.
func (p *FaultPlan) TornWrites() *FaultPlan {
	p.mu.Lock()
	p.tornWrites = true
	p.mu.Unlock()
	return p
}

// CrashAfterWrites arms a crash trigger that fires on the nth checked
// write from now (n >= 1).
func (p *FaultPlan) CrashAfterWrites(n int) *FaultPlan {
	p.mu.Lock()
	p.crashAfterWrites = n
	p.mu.Unlock()
	return p
}

// CrashAfterBytes arms a crash trigger that fires once n checked write
// bytes have been consumed; the triggering write is torn at the
// remaining budget.
func (p *FaultPlan) CrashAfterBytes(n int64) *FaultPlan {
	p.mu.Lock()
	p.crashAfterBytes = n
	p.mu.Unlock()
	return p
}

// DelayWrites makes every checked write of at least minBytes pay a fixed
// delay before its verdict — a brake, not a fault: no error is injected
// and no counter advances beyond the usual CheckedWrites tally. Backlog
// tests use it to slow the bulk flush path deterministically relative to
// foreground writes; the size floor lets them spare the small manifest
// and gate records that share the device (minBytes ≤ 0 brakes them all).
func (p *FaultPlan) DelayWrites(minBytes int, d time.Duration) *FaultPlan {
	p.mu.Lock()
	p.writeDelay = d
	p.writeDelayMin = minBytes
	p.mu.Unlock()
	return p
}

// SetOnCrash registers a callback invoked exactly once, without the
// plan's lock held, when a crash trigger fires.
func (p *FaultPlan) SetOnCrash(fn func()) *FaultPlan {
	p.mu.Lock()
	p.onCrash = fn
	p.mu.Unlock()
	return p
}

// Crashed reports whether a crash trigger has fired.
func (p *FaultPlan) Crashed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed
}

// Stats returns a snapshot of the plan's counters.
func (p *FaultPlan) Stats() FaultStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Crashed = p.crashed
	return s
}

// classify wraps ErrInjected as transient or persistent according to the
// remaining transient budget. Caller holds p.mu.
func (p *FaultPlan) classifyLocked(err error) error {
	if p.allTransient {
		return transientErr{err}
	}
	if p.transientBudget > 0 {
		p.transientBudget--
		return transientErr{err}
	}
	return err
}

// CheckWrite gates an n-byte write. See WriteOutcome for the contract.
func (p *FaultPlan) CheckWrite(n int) WriteOutcome {
	if p == nil {
		return WriteOutcome{Torn: -1}
	}
	p.mu.Lock()
	delay := p.writeDelay
	if n < p.writeDelayMin {
		delay = 0
	}
	p.mu.Unlock()
	if delay > 0 {
		// Outside the plan's lock so concurrent device users stack their
		// delays in wall time only when they really contend on the device.
		Spin(delay)
	}
	var onCrash func()
	p.mu.Lock()
	if p.crashed {
		p.mu.Unlock()
		return WriteOutcome{Err: ErrCrashed, Torn: -1}
	}
	p.stats.CheckedWrites++
	out := WriteOutcome{Torn: -1}

	// Crash triggers take priority over plain error injection.
	crash := false
	if p.crashAfterWrites > 0 {
		p.crashAfterWrites--
		if p.crashAfterWrites == 0 {
			crash = true
			if p.tornWrites && n > 0 {
				out.Torn = p.rng.Intn(n + 1)
			}
		}
	}
	if !crash && p.crashAfterBytes >= 0 {
		if int64(n) > p.crashAfterBytes {
			crash = true
			out.Torn = int(p.crashAfterBytes) // remaining budget reaches media
		} else {
			p.crashAfterBytes -= int64(n)
			if p.crashAfterBytes == 0 {
				crash = true
				out.Torn = n // whole write landed; device dies after
				p.crashAfterBytes = -1
			}
		}
	}
	if crash {
		p.crashed = true
		p.stats.InjectedWrites++
		if out.Torn > 0 {
			p.stats.TornBytes += int64(out.Torn)
		}
		out.Err = fmt.Errorf("%w (after %d writes)", ErrCrashed, p.stats.CheckedWrites)
		onCrash, p.onCrash = p.onCrash, nil
		p.mu.Unlock()
		if onCrash != nil {
			onCrash()
		}
		return out
	}

	inject := false
	if p.writeEveryN > 0 && p.stats.CheckedWrites%int64(p.writeEveryN) == 0 {
		inject = true
	}
	if !inject && p.writeProb > 0 && p.rng.Float64() < p.writeProb {
		inject = true
	}
	if inject {
		p.stats.InjectedWrites++
		out.Err = p.classifyLocked(fmt.Errorf("%w: write op %d", ErrInjected, p.stats.CheckedWrites))
		if p.tornWrites && n > 0 {
			out.Torn = p.rng.Intn(n + 1)
			p.stats.TornBytes += int64(out.Torn)
		}
	}
	p.mu.Unlock()
	return out
}

// CheckRead gates an n-byte read, returning nil or an injected error.
func (p *FaultPlan) CheckRead(n int) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return ErrCrashed
	}
	p.stats.CheckedReads++
	inject := false
	if p.readEveryN > 0 && p.stats.CheckedReads%int64(p.readEveryN) == 0 {
		inject = true
	}
	if !inject && p.readProb > 0 && p.rng.Float64() < p.readProb {
		inject = true
	}
	if !inject {
		return nil
	}
	p.stats.InjectedReads++
	return p.classifyLocked(fmt.Errorf("%w: read op %d", ErrInjected, p.stats.CheckedReads))
}
