// Package farm is the fault-tolerant sharded experiment farm: it fans a
// campaign's experiment points out across worker goroutines — one
// deterministic, single-threaded engine per point — and makes robustness
// the contract of the harness tier:
//
//   - a panicking point is recovered, converted into a structured
//     PointFailure (optionally with a captured repro bundle), and never
//     crashes the campaign;
//   - every point can carry a deadline: a wedged point is abandoned, marked
//     degraded, and its worker freed (the watchdog for hung shards);
//   - transient failures are retried under a bounded budget with
//     exponential backoff, after which the point is marked degraded and the
//     campaign continues; backoff sleeps are context-interruptible, so a
//     cancelled campaign never sits out a pending backoff before draining;
//   - completed points are checkpointed to a versioned on-disk journal
//     (journal.go) keyed by the campaign identity, so an interrupted run
//     resumes exactly where it stopped;
//   - cancelling the context triggers graceful shutdown: no new points are
//     dispatched, in-flight points drain, and every drained result is
//     recorded before Run returns.
//
// Results merge order-stably: the result slice is indexed by the input
// point order regardless of shard count, so — given point functions that
// build their own engines and share no state, which the tier taxonomy's
// nogoroutine/tiercheck analyzers statically prove for the engine tier —
// a campaign at shards=N is byte-identical to the same campaign at
// shards=1 and to a serial loop over the points.
//
//hsw:tier harness
package farm

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// DefaultBackoff is the base retry backoff applied when Options.Backoff is
// zero; attempt k (0-based) sleeps Backoff<<k before retrying.
const DefaultBackoff = 100 * time.Millisecond

// Options tunes one campaign run.
type Options struct {
	// Shards is the number of worker goroutines; values below 1 mean 1
	// (serial execution in dispatch order).
	Shards int
	// PointDeadline bounds one attempt of one point; 0 means unbounded.
	// An attempt that exceeds it is abandoned — its goroutine keeps
	// running detached, its eventual result is discarded — and the point
	// is marked degraded with KindDeadline (no retry: a wedged point
	// would only wedge again and burn another deadline).
	PointDeadline time.Duration
	// Retries is the per-point retry budget for failed attempts (errors
	// and panics); the point runs at most Retries+1 times.
	Retries int
	// Backoff is the base sleep before retry k (0-based): Backoff<<k,
	// capped at Backoff<<10. Zero means DefaultBackoff.
	Backoff time.Duration
	// Journal, when non-nil, checkpoints every completed point and
	// restores points it already holds without re-running them.
	Journal *Journal
	// StopOnFailure cancels dispatch after the first degraded point:
	// in-flight points drain, undispatched points are marked skipped.
	// With Shards=1 this reproduces a serial loop's abort-on-first-error
	// semantics exactly.
	StopOnFailure bool
	// OnPointDone, when non-nil, is called after each point finishes
	// (completed or degraded; not for checkpoint-restored or skipped
	// points). Calls are serialized by the farm's internal lock.
	OnPointDone func(key string, failed bool)
}

// FailureKind classifies why a point degraded.
type FailureKind int

// Failure kinds.
const (
	// KindError is a point function returning an error on its last
	// attempt.
	KindError FailureKind = iota
	// KindPanic is a recovered panic on the last attempt.
	KindPanic
	// KindDeadline is an attempt exceeding Options.PointDeadline.
	KindDeadline
	// KindSkipped marks a point that was never attempted because the
	// campaign was cancelled (or StopOnFailure fired) first.
	KindSkipped
)

// String names the failure kind.
func (k FailureKind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDeadline:
		return "deadline"
	case KindSkipped:
		return "skipped"
	default:
		return fmt.Sprintf("FailureKind(%d)", int(k))
	}
}

// PointFailure is the structured record of one degraded point: what
// happened, how many attempts were spent, and — for captured panics —
// where the repro bundle landed.
type PointFailure struct {
	Key      string
	Kind     FailureKind
	Attempts int
	// Err is the last attempt's error text (KindError), the capture
	// error (KindPanic whose bundle write failed), or the deadline
	// diagnosis (KindDeadline).
	Err string
	// Panic and Stack describe a recovered panic.
	Panic string
	Stack string
	// BundlePath names the repro bundle the point's registered capture
	// hook wrote while the panic unwound ("" when no hook was set or
	// the write failed).
	BundlePath string
}

// Error formats the failure; a *PointFailure satisfies error so campaign
// layers can wrap it.
func (f *PointFailure) Error() string {
	msg := fmt.Sprintf("point %s degraded (%v) after %d attempt(s)", f.Key, f.Kind, f.Attempts)
	if f.Panic != "" {
		msg += ": " + f.Panic
	}
	if f.Err != "" {
		msg += ": " + f.Err
	}
	if f.BundlePath != "" {
		msg += " (repro bundle: " + f.BundlePath + ")"
	}
	return msg
}

// Ctx is the per-attempt context handed to the point function.
type Ctx struct {
	// Key and Index identify the point; Attempt is 0-based.
	Key     string
	Index   int
	Attempt int

	capture func(recovered any) (string, error)
}

// CaptureOnPanic registers a hook the farm invokes — on the point's own
// goroutine, while the panic unwinds, with the point's state intact — to
// write a repro bundle; the returned path lands in
// PointFailure.BundlePath. Register it as soon as the recording
// infrastructure (e.g. an attached flight recorder) exists, so even an
// early panic is captured.
func (c *Ctx) CaptureOnPanic(f func(recovered any) (string, error)) { c.capture = f }

// Result is one point's outcome, at its input position.
type Result[R any] struct {
	Key   string
	Index int
	// Value is the point's result when Failure is nil.
	Value R
	// Attempts counts executions (0 for checkpoint-restored points).
	Attempts int
	// FromCheckpoint marks a point restored from the journal.
	FromCheckpoint bool
	// Failure is nil for completed points.
	Failure *PointFailure
}

// OK reports whether the point completed.
func (r Result[R]) OK() bool { return r.Failure == nil }

// Stats summarizes a campaign's results.
type Stats struct {
	Points, Completed, Degraded, Skipped, FromCheckpoint, Retries int
}

// Summarize tallies a result slice.
func Summarize[R any](results []Result[R]) Stats {
	var st Stats
	for _, r := range results {
		st.Points++
		switch {
		case r.Failure == nil:
			st.Completed++
			if r.FromCheckpoint {
				st.FromCheckpoint++
			}
		case r.Failure.Kind == KindSkipped:
			st.Skipped++
		default:
			st.Degraded++
		}
		if r.Attempts > 1 {
			st.Retries += r.Attempts - 1
		}
	}
	return st
}

// Run executes one campaign: every point through the shard pool, results
// merged order-stably at their input indices.
//
// The returned error is nil when the campaign ran to its natural end —
// even with degraded points (inspect the results); it is the context's
// error when the campaign was cancelled mid-run (the partial results are
// still returned, drained and checkpointed), and a journal error when a
// checkpoint could not be read or written. A nil result slice means the
// campaign could not start at all (bad keys, undecodable checkpoint).
func Run[P, R any](ctx context.Context, o Options, points []P, key func(i int, p P) string, run func(c *Ctx, p P) (R, error)) ([]Result[R], error) {
	if key == nil || run == nil {
		return nil, fmt.Errorf("farm: nil key or run function")
	}
	shards := o.Shards
	if shards < 1 {
		shards = 1
	}

	results := make([]Result[R], len(points))
	seen := make(map[string]int, len(points))
	for i, p := range points {
		k := key(i, p)
		if k == "" {
			return nil, fmt.Errorf("farm: empty key for point %d", i)
		}
		if j, dup := seen[k]; dup {
			return nil, fmt.Errorf("farm: duplicate point key %q (points %d and %d)", k, j, i)
		}
		seen[k] = i
		results[i] = Result[R]{Key: k, Index: i, Failure: &PointFailure{Key: k, Kind: KindSkipped}}
	}
	if o.Journal != nil {
		for i := range results {
			raw, ok := o.Journal.Lookup(results[i].Key)
			if !ok {
				continue
			}
			var v R
			if err := json.Unmarshal(raw, &v); err != nil {
				return nil, fmt.Errorf("farm: checkpoint entry for %q does not decode: %w (delete %s to restart the campaign)",
					results[i].Key, err, o.Journal.Path())
			}
			results[i] = Result[R]{Key: results[i].Key, Index: i, Value: v, FromCheckpoint: true}
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	idxCh := make(chan int)
	go func() {
		defer close(idxCh)
		for i := range results {
			if results[i].FromCheckpoint {
				continue
			}
			select {
			case idxCh <- i:
			case <-runCtx.Done():
				return
			}
		}
	}()

	var (
		mu         sync.Mutex
		wg         sync.WaitGroup
		journalErr error
	)
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				// The producer's select may still hand out a point that was
				// queued when cancellation raced it; refuse it here so that
				// after cancel() returns no new point ever starts. The point
				// keeps its pre-marked skipped failure.
				if runCtx.Err() != nil {
					continue
				}
				res := runPoint(runCtx, o, results[idx].Key, points[idx], idx, run)
				mu.Lock()
				results[idx] = res
				if res.Failure == nil && o.Journal != nil {
					if err := o.Journal.Record(res.Key, res.Value); err != nil && journalErr == nil {
						journalErr = fmt.Errorf("farm: checkpointing %q: %w", res.Key, err)
						cancel()
					}
				}
				if res.Failure != nil && o.StopOnFailure {
					cancel()
				}
				if o.OnPointDone != nil {
					o.OnPointDone(res.Key, res.Failure != nil)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if journalErr != nil {
		return results, journalErr
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, nil
}

// runPoint executes one point's attempt loop: retry with exponential
// backoff on errors and panics until the budget is spent, no retry after a
// deadline expiry, no new attempts once the campaign is cancelled.
func runPoint[P, R any](ctx context.Context, o Options, key string, p P, idx int, run func(*Ctx, P) (R, error)) Result[R] {
	res := Result[R]{Key: key, Index: idx}
	backoff := o.Backoff
	if backoff <= 0 {
		backoff = DefaultBackoff
	}
	for attempt := 0; ; attempt++ {
		res.Attempts = attempt + 1
		v, fail := runAttempt(o, key, idx, attempt, p, run)
		if fail == nil {
			res.Value = v
			res.Failure = nil
			return res
		}
		fail.Attempts = res.Attempts
		res.Failure = fail
		if fail.Kind == KindDeadline || attempt >= o.Retries || ctx.Err() != nil {
			return res
		}
		shift := attempt
		if shift > 10 {
			shift = 10
		}
		// The backoff sleep is context-interruptible: a cancelled campaign
		// returns the point's last failure immediately instead of sitting
		// out the remaining backoff (which, at high attempt counts, can be
		// minutes) before the farm is allowed to drain.
		t := time.NewTimer(backoff << shift)
		select {
		case <-ctx.Done():
			t.Stop()
			return res
		case <-t.C:
		}
	}
}

// runAttempt executes one attempt under recover() and, when a deadline is
// configured, under the watchdog: the attempt runs on its own goroutine
// and is abandoned — never joined — once the timer fires.
func runAttempt[P, R any](o Options, key string, idx, attempt int, p P, run func(*Ctx, P) (R, error)) (R, *PointFailure) {
	type outcome struct {
		v    R
		fail *PointFailure
	}
	exec := func() (out outcome) {
		c := &Ctx{Key: key, Index: idx, Attempt: attempt}
		defer func() {
			if rec := recover(); rec != nil {
				pf := &PointFailure{
					Key:   key,
					Kind:  KindPanic,
					Panic: fmt.Sprint(rec),
					Stack: string(debug.Stack()),
				}
				if c.capture != nil {
					if path, err := c.capture(rec); err == nil {
						pf.BundlePath = path
					} else {
						pf.Err = "bundle capture failed: " + err.Error()
					}
				}
				out = outcome{fail: pf}
			}
		}()
		v, err := run(c, p)
		if err != nil {
			return outcome{fail: &PointFailure{Key: key, Kind: KindError, Err: err.Error()}}
		}
		return outcome{v: v}
	}

	if o.PointDeadline <= 0 {
		out := exec()
		return out.v, out.fail
	}
	ch := make(chan outcome, 1)
	go func() { ch <- exec() }()
	t := time.NewTimer(o.PointDeadline)
	defer t.Stop()
	select {
	case out := <-ch:
		return out.v, out.fail
	case <-t.C:
		var zero R
		return zero, &PointFailure{
			Key:  key,
			Kind: KindDeadline,
			Err:  fmt.Sprintf("attempt exceeded the %v point deadline; worker abandoned it", o.PointDeadline),
		}
	}
}
