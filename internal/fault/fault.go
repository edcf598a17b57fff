// Package fault is the unified deterministic fault-injection and
// recovery-policy layer. The paper's robustness story (§4.3: EnTK resubmits
// failed ExaAM tasks in smaller consecutive jobs at 8000-node scale) used to
// be reproduced by four unrelated mechanisms — cluster.FaultInjector,
// exaam.markFailures, entk's resubmission rounds, and cloud.SpotFleet
// reclaims — none of which composed. This package factors both sides of the
// problem into one place:
//
//   - failure processes (process.go): exponential-MTBF node faults, transient
//     task failures with configurable persistence, spot-style reclaims with a
//     warning lead time, and I/O slowdown episodes, all driven by forked
//     randx sources on a sim.Engine so chaos runs are bit-identical per seed;
//   - recovery policies (this file): retry with capped exponential backoff
//     and deterministic jitter, per-attempt virtual-time timeouts, and
//     max-attempt circuit breaking with graceful degradation.
//
// The rm.StreamRunner DAG executor, which every workflow run — CWS and
// pilot runs included — goes through, consumes RetryPolicy instead of ad-hoc
// retry counters, which is where RADICAL-Pilot/Parsl put recovery too: in
// the pilot/runtime layer, not in each driver. EnTK's resubmission jobs are
// the one exception: a whole smaller batch job per round, bounded by
// entk.AppManager.MaxResubmitRounds.
package fault

import (
	"errors"
	"fmt"
	"math"

	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// ErrTimeout marks an attempt ended by the policy's virtual-time timeout.
var ErrTimeout = errors.New("fault: attempt timed out")

// ErrCircuitOpen marks an attempt abandoned because the breaker opened.
var ErrCircuitOpen = errors.New("fault: circuit open, retries abandoned")

// RetryPolicy is the shared recovery policy. The zero value means "one
// attempt, no backoff, no timeout"; DefaultRetryPolicy returns the tuning the
// chaos profiles use.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget including the first try
	// (<= 0 is treated as 1: no retries).
	MaxAttempts int
	// BaseDelaySec is the backoff before the first retry.
	BaseDelaySec float64
	// MaxDelaySec caps the grown backoff (0 = uncapped).
	MaxDelaySec float64
	// Multiplier grows the delay per retry (<= 1 is treated as 2).
	Multiplier float64
	// JitterFrac spreads each delay uniformly in ±JitterFrac·delay, drawn
	// from the deterministic rng handed to Backoff. Jitter decorrelates
	// retry storms without breaking reproducibility.
	JitterFrac float64
	// TimeoutSec bounds each attempt in virtual time, measured from
	// submission (0 = no timeout).
	TimeoutSec float64
	// BreakThreshold opens the circuit after this many consecutive failures
	// (0 = never): further retries are abandoned and the caller degrades
	// gracefully instead of hammering a sick substrate.
	BreakThreshold int
}

// DefaultRetryPolicy returns the policy the named chaos profiles run under.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:  5,
		BaseDelaySec: 5,
		MaxDelaySec:  120,
		Multiplier:   2,
		JitterFrac:   0.2,
	}
}

// String renders the policy compactly — the form stored as recovery metadata
// in provenance records and trace args.
func (p RetryPolicy) String() string {
	return fmt.Sprintf("retry(max=%d base=%gs mult=%g cap=%gs jitter=%g timeout=%gs break=%d)",
		p.Attempts(), p.BaseDelaySec, p.Multiplier, p.MaxDelaySec, p.JitterFrac, p.TimeoutSec, p.BreakThreshold)
}

// Attempts returns the normalized total attempt budget (>= 1).
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts <= 0 {
		return 1
	}
	return p.MaxAttempts
}

// ShouldRetry reports whether another attempt is allowed after `attempt`
// (1-based) just failed.
func (p RetryPolicy) ShouldRetry(attempt int) bool {
	return attempt < p.Attempts()
}

// Backoff returns the delay before the attempt following `attempt` (1-based):
// BaseDelaySec · Multiplier^(attempt-1), capped at MaxDelaySec, with
// deterministic jitter drawn from rng (rng may be nil: no jitter). The result
// is never negative.
func (p RetryPolicy) Backoff(attempt int, rng *randx.Source) sim.Time {
	if p.BaseDelaySec <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = 2
	}
	if attempt < 1 {
		attempt = 1
	}
	d := p.BaseDelaySec * math.Pow(mult, float64(attempt-1))
	if p.MaxDelaySec > 0 && d > p.MaxDelaySec {
		d = p.MaxDelaySec
	}
	if p.JitterFrac > 0 && rng != nil {
		d *= 1 + p.JitterFrac*(2*rng.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	return sim.Time(d)
}

// NewBreaker returns the policy's circuit breaker (nil when BreakThreshold
// is 0, which callers treat as "never break").
func (p RetryPolicy) NewBreaker() *Breaker {
	if p.BreakThreshold <= 0 {
		return nil
	}
	return &Breaker{Threshold: p.BreakThreshold}
}

// Breaker is a consecutive-failure circuit breaker. Once open it stays open
// until Reset: the owning runtime stops retrying and degrades (runs what it
// can on the remaining healthy capacity) instead of spinning on a substrate
// that keeps killing work.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the circuit
	// (<= 0: never opens).
	Threshold int

	consecutive int
	open        bool
	trips       int
}

// Record folds one terminal attempt outcome into the breaker.
func (b *Breaker) Record(failed bool) {
	if b == nil {
		return
	}
	if !failed {
		b.consecutive = 0
		return
	}
	b.consecutive++
	if b.Threshold > 0 && b.consecutive >= b.Threshold && !b.open {
		b.open = true
		b.trips++
	}
}

// Open reports whether the circuit is open. A nil breaker is never open.
func (b *Breaker) Open() bool { return b != nil && b.open }

// Trips returns how many times the circuit opened.
func (b *Breaker) Trips() int {
	if b == nil {
		return 0
	}
	return b.trips
}

// Reset closes the circuit and clears the consecutive-failure count.
func (b *Breaker) Reset() {
	if b == nil {
		return
	}
	b.open = false
	b.consecutive = 0
}

// Outcome is the terminal record of a supervised operation.
type Outcome struct {
	ID          string
	Attempts    int
	Succeeded   bool
	TimedOut    bool // the final attempt was ended by the timeout
	CircuitOpen bool // retries were abandoned by the breaker
	BackoffSec  float64
	Err         error
}

// Supervisor drives an asynchronous attempt under a RetryPolicy on a
// sim.Engine: it retries failed attempts after the policy's backoff, bounds
// each attempt with a virtual-time timeout, and stops when the shared breaker
// opens. It is the generic harness behind the per-runtime wirings.
type Supervisor struct {
	Eng    *sim.Engine
	Policy RetryPolicy
	// RNG supplies deterministic backoff jitter (may be nil).
	RNG *randx.Source
	// Breaker, when non-nil, is shared across operations: consecutive
	// failures anywhere open it for everyone.
	Breaker *Breaker
}

// Run starts the supervised operation. attempt is invoked once per try with a
// done callback it must call exactly once; it returns an abort function the
// supervisor invokes if the timeout fires first (a late done after timeout is
// ignored). final receives the terminal Outcome exactly once.
func (s *Supervisor) Run(id string, attempt func(done func(err error)) (abort func()), final func(Outcome)) {
	out := Outcome{ID: id}
	var try func(n int)
	try = func(n int) {
		out.Attempts = n
		settled := false
		var timeoutEv *sim.Event
		var abort func()
		fail := func(err error, timedOut bool) {
			s.Breaker.Record(true)
			if s.Policy.ShouldRetry(n) && !s.Breaker.Open() {
				d := s.Policy.Backoff(n, s.RNG)
				out.BackoffSec += float64(d)
				s.Eng.After(d, func() { try(n + 1) })
				return
			}
			out.TimedOut = timedOut
			out.CircuitOpen = s.Breaker.Open() && s.Policy.ShouldRetry(n)
			if out.CircuitOpen {
				err = ErrCircuitOpen
			}
			out.Err = err
			final(out)
		}
		done := func(err error) {
			if settled {
				return
			}
			settled = true
			if timeoutEv != nil {
				timeoutEv.Cancel()
			}
			if err != nil {
				fail(err, false)
				return
			}
			s.Breaker.Record(false)
			out.Succeeded = true
			final(out)
		}
		abort = attempt(done)
		if s.Policy.TimeoutSec > 0 && !settled {
			timeoutEv = s.Eng.After(sim.Time(s.Policy.TimeoutSec), func() {
				if settled {
					return
				}
				settled = true
				if abort != nil {
					abort()
				}
				fail(ErrTimeout, true)
			})
		}
	}
	try(1)
}
