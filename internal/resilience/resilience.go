// Package resilience provides the retry/backoff/circuit-breaker policies
// shared by every component that talks to something that can fail: the
// edge spool drainer reconnecting to the broker, the replica follower
// reconnecting to the primary, and the DfAnalyzer HTTP target posting to
// the store. Before this package each of those hand-rolled its own
// backoff with subtly different jitter and reset semantics; unifying them
// makes degraded-mode behavior predictable and testable in one place.
//
// Three pieces compose:
//
//   - Backoff: jittered exponential delay schedule, pure (no state).
//   - Retry: a budgeted retry loop around an operation, sleeping the
//     backoff schedule between attempts and honoring context cancel.
//   - Breaker: a three-state circuit breaker (closed / open / half-open
//     probe) that stops hammering a dead dependency and cheaply detects
//     recovery with a single probe.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// Backoff computes jittered exponential delays. The zero value is not
// useful; fill Min and Max. Delay(attempt) grows Min·2^attempt capped at
// Max, then jitters uniformly over [d/2, d] — the same "decorrelated
// half-window" jitter the spool drainer always used, which keeps a herd
// of reconnecting devices spread over half the nominal delay.
type Backoff struct {
	Min time.Duration // first-retry delay (required)
	Max time.Duration // cap on the doubled delay (required)

	// Rand optionally overrides the jitter source with a deterministic
	// one for tests. It must return a value in [0, 1).
	Rand func() float64
}

// Delay returns the jittered sleep before retry number attempt (0-based:
// attempt 0 is the delay after the first failure).
func (b Backoff) Delay(attempt int) time.Duration {
	d := b.Min
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	max := b.Max
	if max < d {
		max = d
	}
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= max || d <= 0 { // d <= 0 guards overflow
			d = max
			break
		}
	}
	return b.jitter(d)
}

// DelayFor is Delay(attempt) after a failure with err: when err carries
// a RetryAfterError the delay is raised to at least its After, with
// upward jitter of half that window so a herd told "come back later"
// does not return in lockstep.
func (b Backoff) DelayFor(attempt int, err error) time.Duration {
	d := b.Delay(attempt)
	var ra *RetryAfterError
	if errors.As(err, &ra) && ra.After > 0 {
		if min := ra.After + b.jitter(ra.After) - ra.After/2; d < min {
			d = min
		}
	}
	return d
}

// jitter maps d to a uniform value in [d/2, d].
func (b Backoff) jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	u := b.Rand
	if u == nil {
		u = rand.Float64
	}
	half := d / 2
	return half + time.Duration(u()*float64(d-half))
}

// Permanent wraps err to mark it non-retryable: Retry.Do returns it
// immediately instead of burning budget on an error that cannot heal
// (e.g. a replica rejected as diverged, or a 4xx other than 409/429).
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err}
}

type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// IsPermanent reports whether err (or anything it wraps) was marked with
// Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// RetryAfterError carries a server-suggested delay (e.g. a broker CONNACK
// congestion rejection). Retry.Do sleeps at least this long — jittered up,
// never down, so a herd told "come back in 2s" does not return in
// lockstep — before the next attempt.
type RetryAfterError struct {
	After time.Duration
	Err   error
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", e.Err, e.After)
}
func (e *RetryAfterError) Unwrap() error { return e.Err }

// ErrBudgetExhausted wraps the last attempt's error when a bounded Retry
// runs out of attempts.
var ErrBudgetExhausted = errors.New("resilience: retry budget exhausted")

// Retry runs an operation with budgeted, backoff-spaced attempts.
type Retry struct {
	// Budget bounds total attempts (not retries): Budget 3 means the op
	// runs at most 3 times. 0 or negative means retry until the context
	// is canceled.
	Budget  int
	Backoff Backoff
	// Breaker, when set, gates every attempt: while the breaker is open
	// the attempt is skipped and counted as a failed (retryable) try,
	// and every real attempt's outcome is recorded into the breaker.
	Breaker *Breaker
	// OnRetry, when set, observes each scheduled retry: the attempt
	// number just failed (0-based), its error, and the sleep chosen.
	// Used to surface backoff state in stats.
	OnRetry func(attempt int, err error, sleep time.Duration)
}

// Do runs op until it succeeds, returns a Permanent error, the budget is
// exhausted, or ctx is done. The error returned is the operation's last
// error (wrapped in ErrBudgetExhausted when the budget ran out), or
// ctx.Err() on cancellation.
func (r Retry) Do(ctx context.Context, op func(ctx context.Context) error) error {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		if r.Breaker != nil && !r.Breaker.Allow() {
			err = ErrOpen
		} else {
			err = op(ctx)
			if r.Breaker != nil {
				r.Breaker.Record(err)
			}
		}
		if err == nil {
			return nil
		}
		if IsPermanent(err) {
			return err
		}
		if r.Budget > 0 && attempt+1 >= r.Budget {
			return fmt.Errorf("%w after %d attempts: %w", ErrBudgetExhausted, r.Budget, err)
		}
		sleep := r.Backoff.DelayFor(attempt, err)
		if r.OnRetry != nil {
			r.OnRetry(attempt, err, sleep)
		}
		timer := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
	}
}

// Breaker states.
type State int32

const (
	Closed   State = iota // normal operation
	Open                  // failing fast; dependency presumed down
	HalfOpen              // cooldown elapsed; one probe in flight
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// ErrOpen is returned (or recorded as the attempt error) when the breaker
// is open and the call was not attempted.
var ErrOpen = errors.New("resilience: circuit breaker open")

// Breaker is a three-state circuit breaker. Closed counts consecutive
// failures; at Threshold it opens. Open fails fast until Cooldown
// elapses, then admits exactly one probe (half-open). A successful probe
// closes the breaker; a failed one re-opens it and restarts the cooldown.
// All methods are safe for concurrent use.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the breaker.
	// Defaults to 5.
	Threshold int
	// Cooldown is how long the breaker stays open before admitting a
	// probe. Defaults to 5s.
	Cooldown time.Duration
	// now is stubbed in tests.
	now func() time.Time

	mu       sync.Mutex
	state    State
	failures int
	openedAt time.Time
	probing  bool

	// lifetime counters for stats
	trips     uint64
	rejected  uint64
	lastError error
}

func (b *Breaker) clock() time.Time {
	if b.now != nil {
		return b.now()
	}
	return time.Now()
}

func (b *Breaker) threshold() int {
	if b.Threshold > 0 {
		return b.Threshold
	}
	return 5
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown > 0 {
		return b.Cooldown
	}
	return 5 * time.Second
}

// Allow reports whether a call may proceed now. In the open state it
// returns false until the cooldown has elapsed, then transitions to
// half-open and admits a single probe; further callers are rejected until
// that probe's outcome is recorded.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.clock().Sub(b.openedAt) < b.cooldown() {
			b.rejected++
			return false
		}
		b.state = HalfOpen
		b.probing = true
		return true
	case HalfOpen:
		if b.probing {
			b.rejected++
			return false
		}
		b.probing = true
		return true
	}
	return true
}

// Record reports the outcome of a call previously admitted by Allow.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		b.state = Closed
		b.failures = 0
		b.probing = false
		b.lastError = nil
		return
	}
	b.lastError = err
	switch b.state {
	case HalfOpen:
		// Failed probe: back to open, restart the cooldown.
		b.state = Open
		b.openedAt = b.clock()
		b.probing = false
		b.trips++
	case Closed:
		b.failures++
		if b.failures >= b.threshold() {
			b.state = Open
			b.openedAt = b.clock()
			b.trips++
		}
	case Open:
		// A straggler call admitted before the trip finished; stay open.
	}
}

// State returns the breaker's current state (open may lazily report
// half-open only on the next Allow; State is a diagnostic snapshot).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats is a snapshot of breaker activity for observability surfaces.
type BreakerStats struct {
	State    string `json:"state"`
	Failures int    `json:"consecutive_failures"`
	Trips    uint64 `json:"trips"`
	Rejected uint64 `json:"rejected"`
	LastErr  string `json:"last_error,omitempty"`
}

// Stats snapshots the breaker.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BreakerStats{
		State:    b.state.String(),
		Failures: b.failures,
		Trips:    b.trips,
		Rejected: b.rejected,
	}
	if b.lastError != nil {
		s.LastErr = b.lastError.Error()
	}
	return s
}
