// Package clock is the control plane's one time source. The serve
// daemon, the stage transport and the maintenance orchestrator read the
// time, sleep and bound their steps through a Clock: Real outside
// tests, and a Fake that a test moves by hand, so deadlines, drain
// bounds, step timeouts, retry backoff and idle-session TTLs are tested
// without waiting on the wall clock.
package clock

import (
	"context"
	"slices"
	"sync"
	"time"
)

// Clock reads the time, sleeps, and derives timeout contexts.
type Clock interface {
	Now() time.Time
	// Sleep waits d or until ctx is done, and reports whether it waited
	// the full d.
	Sleep(ctx context.Context, d time.Duration) bool
	// WithTimeout is context.WithTimeout on this clock.
	WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc)
}

// Real is the wall clock.
var Real Clock = realClock{}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func (realClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, d)
}

// Fake is a manual clock: its time moves only by Advance and Sleep, and
// a timeout it made fires when the time reaches the deadline. Safe for
// concurrent use.
type Fake struct {
	mu      sync.Mutex
	armed   sync.Cond // broadcast when WithTimeout registers a timeout
	now     time.Time
	pending []*timeout
}

// NewFake returns a Fake that reads start until it is moved.
func NewFake(start time.Time) *Fake {
	f := &Fake{now: start}
	f.armed.L = &f.mu
	return f
}

func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Advance moves the time forward by d (a negative d by nothing) and
// fires every timeout whose deadline it reaches.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(max(d, 0))
	var due []*timeout
	f.pending = slices.DeleteFunc(f.pending, func(t *timeout) bool {
		if t.deadline.After(f.now) {
			return false
		}
		due = append(due, t)
		return true
	})
	f.mu.Unlock()
	for _, t := range due {
		t.cancel(context.DeadlineExceeded)
	}
}

// Sleep advances the time by d at once, so no real time passes, and
// reports whether ctx is still live afterwards.
func (f *Fake) Sleep(ctx context.Context, d time.Duration) bool {
	if ctx.Err() != nil {
		return false
	}
	f.Advance(d)
	return ctx.Err() == nil
}

func (f *Fake) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	inner, cancel := context.WithCancelCause(ctx)
	f.mu.Lock()
	t := &timeout{Context: inner, deadline: f.now.Add(d), cancel: cancel}
	f.pending = append(f.pending, t)
	f.armed.Broadcast()
	f.mu.Unlock()
	f.Advance(0) // a deadline already reached fires at once
	return t, func() {
		f.mu.Lock()
		f.pending = slices.DeleteFunc(f.pending, func(p *timeout) bool { return p == t })
		f.mu.Unlock()
		cancel(nil)
	}
}

// BlockUntil waits until at least n timeouts are pending: made and
// neither fired nor cancelled. A test calls it before Advance when the
// code under test arms its timeout on another goroutine.
func (f *Fake) BlockUntil(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.pending) < n {
		f.armed.Wait()
	}
}

// timeout is a Fake's timeout context: done once the Fake reaches its
// deadline, when Err reports context.DeadlineExceeded.
type timeout struct {
	context.Context
	deadline time.Time
	cancel   context.CancelCauseFunc
}

func (t *timeout) Deadline() (time.Time, bool) { return t.deadline, true }

func (t *timeout) Err() error {
	if err := t.Context.Err(); err == nil || context.Cause(t.Context) != context.DeadlineExceeded {
		return err
	}
	return context.DeadlineExceeded
}
