package retrier

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestBackoffCappedExponential(t *testing.T) {
	r := New("t", 1, Policy{Base: 100 * time.Millisecond, Cap: time.Second})
	full := []time.Duration{
		100 * time.Millisecond, // attempt 2
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		time.Second, // capped
		time.Second,
	}
	for i, d := range full {
		if got := r.Backoff(i + 2); got < d/2 || got > d {
			t.Fatalf("Backoff(%d) = %v, want within [%v, %v]", i+2, got, d/2, d)
		}
	}
	if got := r.Backoff(1); got != 0 {
		t.Fatalf("Backoff(1) = %v, want 0 (first attempt has no backoff)", got)
	}
}

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Cap: time.Second}
	a := New("same", 42, p)
	b := New("same", 42, p)
	for n := 2; n < 10; n++ {
		da, db := a.Backoff(n), b.Backoff(n)
		if da != db {
			t.Fatalf("attempt %d: same name+seed diverged: %v vs %v", n, da, db)
		}
		full := min(p.Base<<(n-2), p.Cap)
		if da > full || da < full/2 {
			t.Fatalf("attempt %d: jittered %v outside [%v, %v]", n, da, full/2, full)
		}
	}
	if c := New("other", 42, p); c.Backoff(2) == a.Backoff(99) {
		// Different names should (overwhelmingly) draw different
		// streams; equality here would indicate the name is ignored.
		t.Log("warning: jitter collision across names (possible but unlikely)")
	}
}

// A retry loop sleeping a long backoff returns promptly when its
// context is canceled.
func TestSleepCancelableMidBackoff(t *testing.T) {
	r := New("t", 1, Policy{Base: time.Hour, Cap: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.Sleep(ctx, 2) }()
	time.Sleep(10 * time.Millisecond) // let it enter the backoff sleep
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err=%v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep did not return after cancel — it is not context-aware")
	}
}

func TestSleepZeroOnFirstAttempt(t *testing.T) {
	r := New("t", 1, Policy{Base: time.Hour})
	if err := r.Sleep(context.Background(), 1); err != nil {
		t.Fatalf("Sleep(1) = %v, want nil without blocking", err)
	}
}
