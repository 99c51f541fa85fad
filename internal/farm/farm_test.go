package farm

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// intKey is the standard key function of the tests.
func intKey(i int, p int) string { return fmt.Sprintf("%03d:p=%d", i, p) }

// TestShardEquivalence: the same campaign at shards 1, 4, and 7 produces
// the exact same result slice — the farm's order-stable merge contract.
func TestShardEquivalence(t *testing.T) {
	points := make([]int, 20)
	for i := range points {
		points[i] = i * 3
	}
	run := func(_ *Ctx, p int) (int, error) { return p*p + 1, nil }

	var want []Result[int]
	for _, shards := range []int{1, 4, 7} {
		got, err := Run(context.Background(), Options{Shards: shards}, points, intKey, run)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if shards == 1 {
			want = got
			for i, r := range got {
				if !r.OK() || r.Value != points[i]*points[i]+1 || r.Index != i {
					t.Fatalf("point %d wrong: %+v", i, r)
				}
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d results differ from shards=1:\n%+v\n%+v", shards, got, want)
		}
	}
}

// TestPanicIsolation: a panicking point becomes a structured PointFailure
// — with the registered capture hook's bundle path — while every other
// point completes.
func TestPanicIsolation(t *testing.T) {
	points := []int{0, 1, 2, 3, 4}
	run := func(c *Ctx, p int) (int, error) {
		if p == 2 {
			c.CaptureOnPanic(func(recovered any) (string, error) {
				return fmt.Sprintf("/bundles/%s.json", c.Key), nil
			})
			panic("boom at point 2")
		}
		return p, nil
	}
	results, err := Run(context.Background(), Options{Shards: 3}, points, intKey, run)
	if err != nil {
		t.Fatal(err)
	}
	st := Summarize(results)
	if st.Completed != 4 || st.Degraded != 1 || st.Skipped != 0 {
		t.Fatalf("stats %+v, want 4 completed / 1 degraded", st)
	}
	f := results[2].Failure
	if f == nil || f.Kind != KindPanic {
		t.Fatalf("point 2 failure = %+v, want panic", f)
	}
	if f.Panic != "boom at point 2" || !strings.Contains(f.Stack, "farm") {
		t.Errorf("panic detail not preserved: %+v", f)
	}
	if f.BundlePath != "/bundles/002:p=2.json" {
		t.Errorf("capture hook path = %q", f.BundlePath)
	}
	if !strings.Contains(f.Error(), "degraded (panic)") || !strings.Contains(f.Error(), "repro bundle") {
		t.Errorf("failure text: %s", f.Error())
	}
}

// TestPanicCaptureFailure: a capture hook that itself errors must not mask
// the panic; the capture error is reported alongside.
func TestPanicCaptureFailure(t *testing.T) {
	run := func(c *Ctx, p int) (int, error) {
		c.CaptureOnPanic(func(any) (string, error) { return "", errors.New("disk full") })
		panic("original panic")
	}
	results, err := Run(context.Background(), Options{}, []int{0}, intKey, run)
	if err != nil {
		t.Fatal(err)
	}
	f := results[0].Failure
	if f == nil || f.Kind != KindPanic || f.Panic != "original panic" {
		t.Fatalf("failure = %+v", f)
	}
	if f.BundlePath != "" || !strings.Contains(f.Err, "disk full") {
		t.Errorf("capture error not surfaced: %+v", f)
	}
}

// TestRetryBudget: transient failures retry up to the budget with
// deterministic attempt counts; exhaustion degrades the point, and the
// counts are identical on re-execution.
func TestRetryBudget(t *testing.T) {
	failuresBefore := map[int]int{1: 2, 3: 5} // point -> failing attempts
	mk := func() func(*Ctx, int) (int, error) {
		return func(c *Ctx, p int) (int, error) {
			if c.Attempt < failuresBefore[p] {
				return 0, fmt.Errorf("transient failure %d of point %d", c.Attempt, p)
			}
			return p * 10, nil
		}
	}
	o := Options{Retries: 2, Backoff: time.Microsecond}
	results, err := Run(context.Background(), o, []int{0, 1, 2, 3}, intKey, mk())
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].OK() || results[0].Attempts != 1 {
		t.Errorf("point 0: %+v", results[0])
	}
	if !results[1].OK() || results[1].Attempts != 3 || results[1].Value != 10 {
		t.Errorf("point 1 should succeed on 3rd attempt: %+v", results[1])
	}
	f := results[3].Failure
	if f == nil || f.Kind != KindError || f.Attempts != 3 {
		t.Errorf("point 3 should exhaust 3 attempts: %+v", results[3])
	}
	if !strings.Contains(f.Err, "transient failure 2 of point 3") {
		t.Errorf("last attempt's error not kept: %q", f.Err)
	}
	st := Summarize(results)
	if st.Retries != 2+2 {
		t.Errorf("retries = %d, want 4", st.Retries)
	}

	again, err := Run(context.Background(), o, []int{0, 1, 2, 3}, intKey, mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripStacks(again), stripStacks(results)) {
		t.Errorf("retry accounting not deterministic:\n%+v\n%+v", again, results)
	}
}

// stripStacks zeroes the goroutine stacks (addresses vary run to run) so
// result slices compare deterministically.
func stripStacks(rs []Result[int]) []Result[int] {
	out := make([]Result[int], len(rs))
	copy(out, rs)
	for i := range out {
		if out[i].Failure != nil {
			f := *out[i].Failure
			f.Stack = ""
			out[i].Failure = &f
		}
	}
	return out
}

// TestDeadlineFreesWorker: a wedged point is abandoned at its deadline
// and the same worker goes on to complete the rest of the campaign
// (shards=1 proves the worker itself was freed, not a sibling).
func TestDeadlineFreesWorker(t *testing.T) {
	wedged := make(chan struct{})
	defer close(wedged)
	run := func(_ *Ctx, p int) (int, error) {
		if p == 1 {
			<-wedged // never signalled during the campaign
		}
		return p, nil
	}
	o := Options{Shards: 1, PointDeadline: 30 * time.Millisecond, Retries: 3}
	results, err := Run(context.Background(), o, []int{0, 1, 2}, intKey, run)
	if err != nil {
		t.Fatal(err)
	}
	f := results[1].Failure
	if f == nil || f.Kind != KindDeadline {
		t.Fatalf("wedged point: %+v", results[1])
	}
	if f.Attempts != 1 {
		t.Errorf("deadline expiry must not retry (a wedge wedges again): attempts = %d", f.Attempts)
	}
	if !results[2].OK() {
		t.Errorf("the worker was not freed: point after the wedge did not complete: %+v", results[2])
	}
}

// TestStopOnFailure: with serial dispatch, the first degraded point stops
// the campaign and later points are marked skipped — the serial
// abort-on-first-error semantics.
func TestStopOnFailure(t *testing.T) {
	run := func(_ *Ctx, p int) (int, error) {
		if p == 1 {
			return 0, errors.New("hard failure")
		}
		return p, nil
	}
	results, err := Run(context.Background(), Options{Shards: 1, StopOnFailure: true}, []int{0, 1, 2, 3}, intKey, run)
	if err != nil {
		t.Fatal(err)
	}
	st := Summarize(results)
	if st.Completed != 1 || st.Degraded != 1 || st.Skipped != 2 {
		t.Fatalf("stats %+v, want 1/1/2", st)
	}
	for _, i := range []int{2, 3} {
		if results[i].Failure == nil || results[i].Failure.Kind != KindSkipped {
			t.Errorf("point %d should be skipped: %+v", i, results[i].Failure)
		}
	}
}

// TestGracefulCancel: cancelling mid-campaign stops dispatch, drains the
// in-flight point (its result is recorded, not lost), and returns the
// context's error with the partial results.
func TestGracefulCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	o := Options{
		Shards: 1,
		OnPointDone: func(string, bool) {
			done++
			if done == 2 {
				cancel()
			}
		},
	}
	run := func(_ *Ctx, p int) (int, error) { return p + 100, nil }
	results, err := Run(ctx, o, []int{0, 1, 2, 3, 4}, intKey, run)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := Summarize(results)
	if st.Completed != 2 || st.Skipped != 3 {
		t.Fatalf("stats %+v, want 2 completed / 3 skipped", st)
	}
	if results[1].Value != 101 {
		t.Errorf("drained in-flight result lost: %+v", results[1])
	}
}

// TestCancelInterruptsBackoff is the serving layer's drain guarantee at
// the farm level: a campaign cancelled while a point sits in its retry
// backoff must flush the checkpoint journal and return the completed
// prefix immediately — not after the pending backoff (here: one hour)
// expires.
func TestCancelInterruptsBackoff(t *testing.T) {
	j, err := OpenJournal(t.TempDir()+"/backoff.journal", "backoff-test")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	failedOnce := make(chan struct{})
	run := func(c *Ctx, p int) (int, error) {
		if p == 0 {
			return 100, nil
		}
		if c.Attempt == 0 {
			close(failedOnce)
		}
		return 0, errors.New("always failing")
	}
	go func() {
		<-failedOnce
		cancel()
	}()

	start := time.Now()
	o := Options{Shards: 1, Retries: 8, Backoff: time.Hour, Journal: j}
	results, err := Run(ctx, o, []int{0, 1, 2, 3}, intKey, run)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("Run took %v; cancellation did not interrupt the backoff sleep", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The completed prefix is returned and checkpointed; the failing point
	// carries its last failure; the rest were never attempted.
	if !results[0].OK() || results[0].Value != 100 {
		t.Errorf("completed prefix lost: %+v", results[0])
	}
	if j.Len() != 1 {
		t.Errorf("journal holds %d points, want the completed prefix (1)", j.Len())
	}
	if _, ok := j.Lookup(results[0].Key); !ok {
		t.Errorf("completed point %q not flushed to the journal", results[0].Key)
	}
	f := results[1].Failure
	if f == nil || f.Kind != KindError || f.Attempts != 1 {
		t.Errorf("cancelled-in-backoff point should keep its last failure: %+v", f)
	}
	for _, i := range []int{2, 3} {
		if results[i].Failure == nil || results[i].Failure.Kind != KindSkipped {
			t.Errorf("point %d should be skipped: %+v", i, results[i].Failure)
		}
	}
}

// TestBadInputs: duplicate and empty keys, nil functions.
func TestBadInputs(t *testing.T) {
	ok := func(_ *Ctx, p int) (int, error) { return p, nil }
	if _, err := Run(context.Background(), Options{}, []int{1, 2}, func(int, int) string { return "same" }, ok); err == nil {
		t.Error("duplicate keys accepted")
	}
	if _, err := Run(context.Background(), Options{}, []int{1}, func(int, int) string { return "" }, ok); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := Run[int, int](context.Background(), Options{}, []int{1}, nil, nil); err == nil {
		t.Error("nil functions accepted")
	}
}

// TestEmptyCampaign: zero points is a completed campaign, not an error.
func TestEmptyCampaign(t *testing.T) {
	results, err := Run(context.Background(), Options{Shards: 8}, nil, intKey, func(_ *Ctx, p int) (int, error) { return p, nil })
	if err != nil || len(results) != 0 {
		t.Fatalf("empty campaign: %v, %d results", err, len(results))
	}
}
