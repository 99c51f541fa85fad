// Command hswsweep runs a single custom latency or bandwidth sweep against
// the simulated machine — the ad-hoc measurement tool the figure harness is
// built from.
//
// Usage:
//
//	hswsweep -mode cod -state exclusive -placer 6 -core 0
//	hswsweep -kind bandwidth -state modified -placer 12 -node 1
//	hswsweep -protocol moesi -state shared ...
//	hswsweep -shards 4 -checkpoint sweep.journal ...
//
// The placement puts every cache line of a growing buffer into the given
// coherence state on the placer core (buffer homed on -node), then measures
// from -core, printing one CSV row per dataset size.
//
// The sweep runs on the experiment farm (internal/farm): sizes fan out
// across -shards workers. Each point builds its own machine and replays the
// allocation prefix of the smaller sizes before allocating its buffer, so
// every point sees the exact physical addresses the historical serial loop
// produced — output is byte-identical at any shard count. -point-deadline,
// -retries, and -checkpoint work as in hswchaos; SIGINT/SIGTERM flush the
// checkpoint and exit 3, and re-running the same command resumes.
//
//hsw:tier tool
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"haswellep/internal/addr"
	"haswellep/internal/bench"
	"haswellep/internal/bwmodel"
	"haswellep/internal/coherence"
	"haswellep/internal/farm"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/placement"
	"haswellep/internal/topology"
	"haswellep/internal/units"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// sweepConfig is everything that determines a point's measured numbers.
type sweepConfig struct {
	mode           machine.SnoopMode
	proto          coherence.ID
	kind, state    string
	place          func(p *placement.Placer, placer, second topology.CoreID, r addr.Region)
	placer, second topology.CoreID
	core           topology.CoreID
	node           topology.NodeID
	sizes          []int64
}

// rowRec is the checkpointable result of one size point: the formatted CSV
// row (strings round-trip trivially, and the row is what the output needs).
type rowRec struct {
	Size int64  `json:"size"`
	Row  string `json:"row"`
}

// runPoint measures one size on a fresh machine. The allocator is advanced
// past every smaller size first — machine.Reset never rewinds the
// allocator, so the historical serial loop's buffer for size i started at
// the offset left by sizes 0..i-1; replaying that prefix keeps physical
// addresses (and therefore slice hashing and home interleave) identical.
func runPoint(c sweepConfig, i int) (rowRec, error) {
	cfg := machine.TestSystem(c.mode)
	cfg.Protocol = c.proto
	m, err := machine.New(cfg)
	if err != nil {
		return rowRec{}, err
	}
	e := mesif.New(m)
	p := placement.New(e)
	for _, prev := range c.sizes[:i] {
		if _, err := m.AllocOnNode(c.node, prev); err != nil {
			return rowRec{}, err
		}
	}
	m.Reset()
	size := c.sizes[i]
	r, err := m.AllocOnNode(c.node, size)
	if err != nil {
		return rowRec{}, err
	}
	c.place(p, c.placer, c.second, r)
	switch c.kind {
	case "latency":
		st := bench.Latency(e, c.core, r)
		return rowRec{Size: size, Row: fmt.Sprintf("%d,%.1f,%v", size, st.MeanNs, st.DominantSource())}, nil
	default: // bandwidth
		st := bwmodel.ReadStream(e, c.core, r, bwmodel.AVX256, bwmodel.ConcurrencyFor(c.mode))
		return rowRec{Size: size, Row: fmt.Sprintf("%d,%.1f", size, st.GBps)}, nil
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fail := func(format string, a ...interface{}) int {
		fmt.Fprintf(stderr, "hswsweep: "+format+"\n", a...)
		return 1
	}

	fs := flag.NewFlagSet("hswsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modeFlag := fs.String("mode", "source", "coherence mode: source, home, cod")
	protoFlag := fs.String("protocol", "mesif", "coherence protocol: mesif, mesi, moesi")
	kind := fs.String("kind", "latency", "measurement: latency or bandwidth")
	state := fs.String("state", "exclusive", "placed state: modified, exclusive, shared, memory")
	placer := fs.Int("placer", 0, "core that places the data")
	sharer := fs.Int("sharer", -1, "second core for shared placement (default: placer+1)")
	core := fs.Int("core", 0, "core that measures")
	node := fs.Int("node", -1, "home node of the buffer (default: placer's node)")
	maxSize := fs.Int64("max", 32, "largest dataset size in MiB")
	shards := fs.Int("shards", 1, "farm worker count (results are byte-identical at any value)")
	pointDeadline := fs.Duration("point-deadline", 0, "per-point attempt deadline (0 = unbounded)")
	retries := fs.Int("retries", 0, "per-point retry budget for failed attempts")
	checkpoint := fs.String("checkpoint", "", "checkpoint journal path; an interrupted sweep resumes from it")
	cancelAfter := fs.Int("cancel-after", 0,
		"cancel the sweep after this many completed points (kill-and-resume testing; 0 = never)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var c sweepConfig
	mode, err := machine.ParseSnoopMode(*modeFlag)
	if err != nil {
		return fail("unknown mode %q", *modeFlag)
	}
	c.mode = mode
	if _, err := coherence.Get(coherence.ID(*protoFlag)); err != nil {
		return fail("%v", err)
	}
	c.proto = coherence.ID(*protoFlag)
	if *kind != "latency" && *kind != "bandwidth" {
		return fail("unknown kind %q", *kind)
	}
	c.kind = *kind
	if c.place, err = placement.Named(*state); err != nil {
		return fail("%v", err)
	}
	c.state = *state

	topo := machine.MustNew(machine.TestSystem(c.mode)).Topo
	c.placer = topology.CoreID(*placer)
	c.core = topology.CoreID(*core)
	if int(c.placer) >= topo.Cores() || int(c.core) >= topo.Cores() {
		return fail("core out of range (0-%d)", topo.Cores()-1)
	}
	c.node = topo.NodeOfCore(c.placer)
	if *node >= 0 {
		if *node >= topo.Nodes() {
			return fail("node out of range (0-%d)", topo.Nodes()-1)
		}
		c.node = topology.NodeID(*node)
	}
	c.second = topology.CoreID(*placer + 1)
	if *sharer >= 0 {
		c.second = topology.CoreID(*sharer)
	}
	for size := int64(16 * units.KiB); size <= *maxSize*units.MiB; size *= 2 {
		c.sizes = append(c.sizes, size)
	}

	var journal *farm.Journal
	if *checkpoint != "" {
		campaign := fmt.Sprintf("sweep/v2 mode=%s proto=%s kind=%s state=%s placer=%d sharer=%d core=%d node=%d max=%d",
			*modeFlag, coherence.Normalize(c.proto), c.kind, c.state, c.placer, c.second, c.core, c.node, *maxSize)
		j, err := farm.OpenJournal(*checkpoint, campaign)
		if err != nil {
			return fail("%v", err)
		}
		journal = j
		defer journal.Close()
	}

	runCtx := ctx
	var cancelRun context.CancelFunc
	if *cancelAfter > 0 {
		runCtx, cancelRun = context.WithCancel(ctx)
		defer cancelRun()
	}
	done := 0
	results, runErr := farm.Run(runCtx, farm.Options{
		Shards:        *shards,
		PointDeadline: *pointDeadline,
		Retries:       *retries,
		Journal:       journal,
		StopOnFailure: true,
		OnPointDone: func(string, bool) {
			done++
			if *cancelAfter > 0 && done >= *cancelAfter {
				cancelRun()
			}
		},
	}, c.sizes,
		func(i int, size int64) string { return fmt.Sprintf("%03d:size=%d", i, size) },
		func(fc *farm.Ctx, _ int64) (rowRec, error) { return runPoint(c, fc.Index) })
	if results == nil {
		return fail("%v", runErr)
	}
	if runErr != nil && (errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded)) {
		st := farm.Summarize(results)
		fmt.Fprintf(stderr, "hswsweep: interrupted after %d completed point(s)", st.Completed)
		if *checkpoint != "" {
			fmt.Fprintf(stderr, "; checkpoint flushed to %s — re-run the same command to resume", *checkpoint)
		}
		fmt.Fprintln(stderr)
		return 3
	}
	if runErr != nil {
		return fail("%v", runErr)
	}
	for _, r := range results {
		if !r.OK() {
			return fail("size %d: %v", c.sizes[r.Index], r.Failure)
		}
	}
	if st := farm.Summarize(results); st.FromCheckpoint > 0 {
		fmt.Fprintf(stderr, "hswsweep: resumed %d point(s) from checkpoint %s\n", st.FromCheckpoint, *checkpoint)
	}

	if c.kind == "latency" {
		fmt.Fprintln(stdout, "size_bytes,latency_ns,dominant_source")
	} else {
		fmt.Fprintln(stdout, "size_bytes,bandwidth_GBps")
	}
	for _, r := range results {
		fmt.Fprintln(stdout, r.Value.Row)
	}
	return 0
}
