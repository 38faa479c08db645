// Degraded read-only mode. Before this layer existed, every background
// I/O failure (flush, compaction, lazy copy, manifest append) was a
// panic(err) that took the whole process down. A production store must
// instead keep serving what it can: transient device errors are retried
// with capped backoff; a persistent error latches a sticky background
// error, background work stops, writes fail fast with ErrDegraded, and
// reads keep being served from the intact in-memory structure.
//
// The latch is deliberately conservative about durability: once the
// manifest (or a WAL) can no longer be appended to, nothing that the
// last recoverable manifest state still references is ever released —
// leaking those arenas is the price of guaranteeing that a crash of the
// degraded process loses no acknowledged write.
package core

import (
	"fmt"
	"time"

	"miodb/internal/kvstore"
	"miodb/internal/nvm"
	"miodb/internal/stats"
)

// ErrDegraded wraps the sticky background error: the store is read-only
// because a background I/O path failed persistently. Inspect DB.Err()
// for the root cause. The sentinel lives in kvstore so the network
// client can map wire errors back onto the same identity.
var ErrDegraded = kvstore.ErrDegraded

// Err returns the store's sticky background error, or nil while the
// store is healthy. Once non-nil it never clears: writes fail with this
// error while reads continue to be served.
func (db *DB) Err() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.bgErr
}

// degradeLocked latches the first background failure. Callers hold db.mu.
func (db *DB) degradeLocked(op string, err error) {
	if db.bgErr != nil || err == nil {
		return
	}
	db.bgErr = fmt.Errorf("%w (%s): %w", ErrDegraded, op, err)
	db.degraded.Store(true)
	db.st.Add(stats.BackgroundErrors, 1)
	// Stop the background runners; wake WaitIdle callers and writers.
	db.bg.StopLocked()
	// Background runners stop on the latch, so no further version edits (and
	// their synchronous sweeps) may ever run; kick one last opportunistic
	// sweep so retired versions whose grace period has already elapsed are
	// reclaimed rather than parked until Close.
	db.trySweep()
}

// degrade is degradeLocked for callers not holding db.mu.
func (db *DB) degrade(op string, err error) {
	db.mu.Lock()
	db.degradeLocked(op, err)
	db.mu.Unlock()
}

// Retry policy for transient device errors: a handful of attempts with
// exponential backoff capped in the low milliseconds. Anything that
// survives the budget is treated as persistent.
const (
	deviceRetries   = 5
	retryBackoffMin = 200 * time.Microsecond
	retryBackoffMax = 5 * time.Millisecond
)

// runDeviceOp runs op, transparently retrying errors the device reports
// as transient (nvm.IsTransient). It returns nil, the first persistent
// error, or the last transient error once the retry budget is exhausted.
func (db *DB) runDeviceOp(op func() error) error {
	backoff := retryBackoffMin
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil || !nvm.IsTransient(err) || attempt >= deviceRetries {
			return err
		}
		db.st.Add(stats.DeviceRetries, 1)
		nvm.Spin(backoff)
		backoff *= 2
		if backoff > retryBackoffMax {
			backoff = retryBackoffMax
		}
	}
}

// gateNVMWrite consults the NVM device's fault plan for an n-byte
// logical write at the top of a background operation whose body is raw
// pointer work (one-piece flush, zero-copy merge). Those stores cannot
// fail mid-operation on real persistent memory either, so the modeled
// device admits the whole operation or fails it up front; transient
// refusals are retried here.
func (db *DB) gateNVMWrite(n int) error {
	return db.runDeviceOp(func() error { return db.nvm.CheckWrite(n).Err })
}

// writeGateLocked reports why writes are currently refused, if they are.
// Callers hold db.mu.
func (db *DB) writeGateLocked() error {
	if db.closed {
		return ErrClosed
	}
	return db.bgErr
}

// writeGate is writeGateLocked for callers not holding db.mu. A healthy
// open store answers from the two latches alone; only a refusal takes
// db.mu, to read which error it is.
func (db *DB) writeGate() error {
	if !db.closedFlag.Load() && !db.degraded.Load() {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.writeGateLocked()
}
