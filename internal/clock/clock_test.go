package clock

import (
	"context"
	"testing"
	"time"
)

// TestFakeTimeout: a Fake timeout fires on the Advance that reaches its
// deadline, not one nanosecond before, and then reports
// context.DeadlineExceeded; a cancelled one stops being pending.
func TestFakeTimeout(t *testing.T) {
	t0 := time.Unix(1_000_000, 0)
	f := NewFake(t0)
	ctx, cancel := f.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if dl, ok := ctx.Deadline(); !ok || !dl.Equal(t0.Add(time.Second)) {
		t.Fatalf("deadline %v %v, want %v", dl, ok, t0.Add(time.Second))
	}
	f.BlockUntil(1) // already armed: returns at once
	f.Advance(time.Second - 1)
	if ctx.Err() != nil {
		t.Fatalf("fired early: %v", ctx.Err())
	}
	f.Advance(1)
	<-ctx.Done()
	if ctx.Err() != context.DeadlineExceeded {
		t.Fatalf("Err = %v, want DeadlineExceeded", ctx.Err())
	}
	if got := f.Now(); !got.Equal(t0.Add(time.Second)) {
		t.Fatalf("Now = %v", got)
	}

	early, cancelEarly := f.WithTimeout(context.Background(), time.Hour)
	cancelEarly()
	if early.Err() != context.Canceled || len(f.pending) != 0 {
		t.Fatalf("cancelled timeout: Err %v, %d pending", early.Err(), len(f.pending))
	}
	now, cancelNow := f.WithTimeout(context.Background(), 0)
	defer cancelNow()
	if now.Err() != context.DeadlineExceeded {
		t.Fatalf("zero timeout: Err = %v", now.Err())
	}
}

// TestSleep: the Fake's Sleep moves its time by exactly d and reports a
// full wait; both clocks report false on a done context.
func TestSleep(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	if !f.Sleep(context.Background(), 1500*time.Millisecond) || f.Now() != time.Unix(1, 5e8) {
		t.Fatalf("Sleep: now %v", f.Now())
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for name, c := range map[string]Clock{"real": Real, "fake": f} {
		if c.Sleep(done, time.Hour) {
			t.Errorf("%s: Sleep on a done context reported a full wait", name)
		}
	}
	if f.Now() != time.Unix(1, 5e8) {
		t.Fatalf("Sleep on a done context moved the fake to %v", f.Now())
	}
}
