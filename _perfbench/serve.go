package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"haswellep/internal/bench"
	"haswellep/internal/bwmodel"
	"haswellep/internal/experiments"
	"haswellep/internal/farm"
	"haswellep/internal/invariant"
	"haswellep/internal/server"
)

// whatif-cold and whatif-hot: an in-process hswd (server.New with hswd's
// defaults) serving Handler() on a loopback listener, driven closed-loop by
// two client connections that each wait for their reply — hswd's clients
// are batch scripts. An op is one query slot.
//
//   - whatif-cold: every pass starts hswd on a fresh journal and sends the
//     seeded mix of distinct small queries once, coldBatch per request, so
//     every slot runs engine construction, RunWhatIf, farm dispatch and an
//     fsynced journal append. Each pass labels the queries afresh: a new
//     memo key, the same measurement.
//   - whatif-hot: hswd first answers the mix once (the fill), then restarts
//     on the same journal, hswd's restart path. Every pass then sends a pool
//     of hotBatch-query requests drawn with repeats from the mix, so every
//     slot is a journal hit — decode, dedupe, lookup, encode and net/http,
//     with no engine work.
//
// Every request body is generated from the seed before the timed passes.

// serveClients is the number of closed-loop connections: two, and never
// more than the host has cores.
var serveClients = min(2, runtime.NumCPU())

const (
	serveShards = 2 // hswd's default farm shards (queue budget: its default 64)
	coldBatch   = 4
	hotBatch    = 16
	hotPool     = 4096 // hot requests per pass

	// maxColdPasses bounds the whatif-cold passes; their request bodies
	// are rendered up front.
	maxColdPasses = 12
	// coldSetupReps is whatif-cold's up-front set-up samples: a start on a
	// fresh journal takes a fraction of a millisecond.
	coldSetupReps = 25
	// tracedHotPasses is the hot passes whatif-hot's traced run makes
	// untraced and again traced: enough CPU profile samples to fold.
	tracedHotPasses = 10
)

// coldSizes are the cold working sets: 64 KiB to 1 MiB, against the
// engine's private caches and L3.
var coldSizes = []int64{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}

// serveMix builds the seeded query mix: kind (latency, bandwidth,
// placement) × snoop mode and die (COD only on the 12-core die) × protocol
// × 1–2 sockets × working set, each spec with seeded nodes and reader
// count, shuffled by the seed. The returned generator draws the hot
// requests.
func serveMix(seed int64) ([]server.Query, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	var specs []server.Query
	for _, kind := range []string{"latency", "bandwidth", "placement"} {
		for _, md := range []struct {
			mode string
			die  int
		}{{"source", 8}, {"source", 12}, {"home", 8}, {"home", 12}, {"cod", 12}} {
			for _, proto := range []string{"mesif", "mesi", "moesi"} {
				for sockets := 1; sockets <= 2; sockets++ {
					for _, size := range coldSizes {
						nodes := sockets
						if md.mode == "cod" {
							nodes *= 2
						}
						specs = append(specs, server.Query{
							Kind: kind, Mode: md.mode, Protocol: proto, Sockets: sockets, Die: md.die,
							FromNode: rng.Intn(nodes), ToNode: rng.Intn(nodes), SizeBytes: size,
							Cores: 1 + rng.Intn(md.die),
						})
					}
				}
			}
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs, rng
}

// query is one cold query slot with its memo keys.
type query struct {
	q    server.Query
	key  string // the server's memo key
	spec string // the memo key without the label
}

// coldSet is the mix under one pass's labels, as rendered requests of
// coldBatch slots each.
type coldSet struct {
	slots []query
	reqs  [][]byte
}

func coldSetFor(specs []server.Query, seed int64, pass int) (coldSet, error) {
	var set coldSet
	for i, q := range specs {
		q.Label = fmt.Sprintf("s%d-p%d-q%d", seed, pass, i)
		s, err := q.Spec()
		if err != nil {
			return set, fmt.Errorf("cold query %d: %w", i, err)
		}
		c := query{q: q, key: s.Key()}
		s.Label = ""
		c.spec = s.Key()
		set.slots = append(set.slots, c)
	}
	for i := 0; i < len(set.slots); i += coldBatch {
		var batch []server.Query
		for _, c := range set.slots[i:min(i+coldBatch, len(set.slots))] {
			batch = append(batch, c.q)
		}
		body, err := json.Marshal(server.Request{Queries: batch})
		if err != nil {
			return set, err
		}
		set.reqs = append(set.reqs, httpRequest(coldOp(len(set.reqs)), body))
	}
	return set, nil
}

// hotSet is hotPool requests of hotBatch slots drawn with repeats from a
// cold set.
type hotSet struct {
	reqs  [][]byte
	slots [][]int // indices into the cold set's slots
}

func hotSetFor(cold coldSet, rng *rand.Rand) (hotSet, error) {
	var set hotSet
	for i := 0; i < hotPool; i++ {
		slots := make([]int, hotBatch)
		batch := make([]server.Query, hotBatch)
		for j := range slots {
			slots[j] = rng.Intn(len(cold.slots))
			batch[j] = cold.slots[slots[j]].q
		}
		body, err := json.Marshal(server.Request{Queries: batch})
		if err != nil {
			return set, err
		}
		set.slots = append(set.slots, slots)
		set.reqs = append(set.reqs, httpRequest(hotOp(i), body))
	}
	return set, nil
}

// Op ids of the cold and hot requests, carried in opHeader.
func coldOp(i int) string { return fmt.Sprintf("c%d", i) }
func hotOp(i int) string  { return fmt.Sprintf("h%d", i) }

// opHeader carries a request's op id to the traced handler.
const opHeader = "X-Perfbench-Op"

// httpRequest renders one POST /v1/whatif request.
func httpRequest(op string, body []byte) []byte {
	return fmt.Appendf(nil, "POST /v1/whatif HTTP/1.1\r\nHost: hswd\r\nContent-Type: application/json\r\n%s: %s\r\nContent-Length: %d\r\n\r\n%s",
		opHeader, op, len(body), body)
}

// requestBody returns the body of a rendered request.
func requestBody(req []byte) []byte {
	_, body, _ := bytes.Cut(req, []byte("\r\n\r\n"))
	return body
}

// hswd is one in-process server instance on a loopback listener.
type hswd struct {
	srv   *server.Server
	http  *http.Server
	addr  string
	serve chan error
}

// startHswd opens (or re-opens) the journal and serves it. ins is the
// traced run's instrumentation; nil leaves hswd's defaults.
func startHswd(journal string, ins *instrumentation) (*hswd, error) {
	cfg := server.Config{JournalPath: journal, Shards: serveShards}
	if ins != nil {
		cfg.RunPoint = ins.runPoint
	}
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.Drain(context.Background()) // the listen error is the one to report
		return nil, err
	}
	h := s.Handler()
	if ins != nil {
		h = ins.wrap(h)
	}
	d := &hswd{srv: s, http: &http.Server{Handler: h}, addr: ln.Addr().String(), serve: make(chan error, 1)}
	go func() { d.serve <- d.http.Serve(ln) }()
	return d, nil
}

// timedStart starts hswd and returns its set-up time. No collection runs
// first: a start allocates little, and a forced collection just before it
// leaves the caches cold and the sweeper running, which doubles the time
// of a start that takes tens of microseconds.
func timedStart(journal string, ins *instrumentation) (*hswd, float64, error) {
	var d *hswd
	var err error
	secs := timed(func() { d, err = startHswd(journal, ins) }).Seconds()
	return d, secs, err
}

// restart is hswd's restart: drain, then open the same journal and serve
// again. It returns the new instance and the restart's time, which leaves
// out the HTTP side's shutdown (see closeHTTP). Like timedStart, it forces
// no collection first.
func restart(d *hswd, journal string, ins *instrumentation) (*hswd, float64, error) {
	down := time.Now()
	err := d.drain()
	stopped := time.Since(down)
	if cerr := d.closeHTTP(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	d, err = startHswd(journal, ins)
	return d, (stopped + time.Since(start)).Seconds(), err
}

// stop drains the server and closes the listener (hswd's SIGTERM path)
// and waits for the serving goroutine to return.
func (d *hswd) stop() error {
	err := d.drain()
	if herr := d.closeHTTP(); err == nil {
		err = herr
	}
	return err
}

// drain stops intake, lets in-flight batches finish and closes the
// journal: the server's half of the stop, which a restart is timed on.
func (d *hswd) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.srv.Drain(ctx)
}

// closeHTTP shuts the HTTP side down. net/http polls for idle connections
// on a doubling timer, so its time is the harness's, not the server's.
func (d *hswd) closeHTTP() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.serve; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	return err
}

// statz fetches the server's counters.
func (d *hswd) statz() (server.Statz, error) {
	var st server.Statz
	resp, err := http.Get("http://" + d.addr + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// conn is one client connection speaking HTTP/1.1 directly, so that all of
// the client's work runs on its own goroutine (and thread).
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func (c *conn) do(req []byte) (int, []byte, error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// reply is one completed request.
type reply struct {
	idx        int // into the pass's request list
	start, end time.Duration
	status     int
	body       []byte // kept for cold requests only
	match      bool   // the hot body equals the expected one
}

// phase is one closed-loop pass's outcome.
type phase struct {
	wall    time.Duration
	replies []reply
	cpu     time.Duration // the client threads' own CPU time
}

func (p phase) latencies(unit time.Duration) []float64 {
	out := make([]float64, len(p.replies))
	for i, r := range p.replies {
		out[i] = float64(r.end-r.start) / float64(unit)
	}
	return out
}

// drive runs one closed-loop pass: serveClients connections, each sending
// the next unsent request of reqs only after its previous reply arrived,
// until every request was sent once. With expect nil (cold) reply bodies
// are kept; otherwise (hot) each is compared with expect. tr, when
// non-nil, records a client span per request under the request's op id.
func drive(addr string, reqs, expect [][]byte, tr *tracer) (phase, error) {
	spanName, opOf := "client:cold-request", coldOp
	if expect != nil {
		spanName, opOf = "client:hot-request", hotOp
	}
	var p phase
	conns := make([]*conn, serveClients)
	for k := range conns {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			for _, c := range conns[:k] {
				c.c.Close()
			}
			return p, err
		}
		conns[k] = &conn{c: nc, br: bufio.NewReader(nc)}
	}
	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.c.Close()
			// A client owns its thread, so the thread's CPU time is the
			// client's: a saturated generator shows up there.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			cpu0 := threadCPU()
			var local []reply
			var err error
			for {
				idx := int(next.Add(1) - 1)
				if idx >= len(reqs) {
					break
				}
				rp := reply{idx: idx, start: time.Since(t0)}
				span := 0
				if tr != nil {
					span = tr.begin(spanName, opOf(idx), 0)
				}
				rp.status, rp.body, err = c.do(reqs[idx])
				rp.end = time.Since(t0)
				if tr != nil {
					tr.end(span)
				}
				if err != nil {
					break
				}
				if expect != nil {
					rp.match = bytes.Equal(rp.body, expect[idx])
					rp.body = nil
				}
				local = append(local, rp)
			}
			cpu := threadCPU() - cpu0
			mu.Lock()
			p.replies = append(p.replies, local...)
			p.cpu += cpu
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.wall = time.Since(t0)
	return p, firstErr
}

// threadCPU returns the calling thread's CPU time (Linux RUSAGE_THREAD),
// or 0 where the kernel does not report it.
func threadCPU() time.Duration {
	const rusageThread = 1
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// coldPass sends every request of set once and then fetches /statz.
func coldPass(d *hswd, set coldSet, ins *instrumentation) (phase, server.Statz, error) {
	var tr *tracer
	if ins != nil {
		tr = ins.t
	}
	p, err := drive(d.addr, set.reqs, nil, tr)
	if err != nil {
		return p, server.Statz{}, fmt.Errorf("cold pass: %w", err)
	}
	st, err := d.statz()
	return p, st, err
}

// answerCheck validates cold replies. bySpec holds the first answer each
// spec got, under any label and in any pass of the run.
type answerCheck struct{ bySpec map[string]json.RawMessage }

// cold returns every slot's answer (nil where the slot failed) and why
// slots failed. A slot fails on a non-200 reply (429 included), a degraded
// or missing answer, a key other than its query's, or an answer that
// differs from the one another label of the same spec got.
func (c *answerCheck) cold(set coldSet, replies []reply) ([]json.RawMessage, []string) {
	if c.bySpec == nil {
		c.bySpec = map[string]json.RawMessage{}
	}
	answers := make([]json.RawMessage, len(set.slots))
	var why []string
	for _, rp := range replies {
		lo := rp.idx * coldBatch
		hi := min(lo+coldBatch, len(set.slots))
		var resp server.Response
		if rp.status != http.StatusOK {
			why = append(why, fmt.Sprintf("cold request %d: status %d: %.200s", rp.idx, rp.status, rp.body))
			continue
		}
		if err := json.Unmarshal(rp.body, &resp); err != nil || len(resp.Results) != hi-lo {
			why = append(why, fmt.Sprintf("cold request %d: malformed reply", rp.idx))
			continue
		}
		for i, res := range resp.Results {
			switch {
			case res.Degraded != nil:
				why = append(why, fmt.Sprintf("cold slot %d degraded: %s %s", lo+i, res.Degraded.Kind, res.Degraded.Error))
			case res.Key != set.slots[lo+i].key || len(res.Answer) == 0:
				why = append(why, fmt.Sprintf("cold slot %d: wrong key or no answer", lo+i))
			default:
				answers[lo+i] = res.Answer
			}
		}
	}
	for i, a := range answers {
		if a == nil {
			continue
		}
		ref, seen := c.bySpec[set.slots[i].spec]
		if !seen {
			c.bySpec[set.slots[i].spec] = a
		} else if !bytes.Equal(a, ref) {
			answers[i] = nil
			why = append(why, fmt.Sprintf("cold slot %d: another label of the same spec got a different answer", i))
		}
	}
	return answers, why
}

// bookCold counts a cold pass's slots as ops, those without an answer as
// failed, and fails an op when /statz shows a cache hit or a coalesced
// slot: every cold slot must run.
func bookCold(r *run, answers []json.RawMessage, why []string, st server.Statz) {
	for _, a := range answers {
		r.ops++
		if a == nil {
			r.failed++
		}
	}
	for i, w := range why {
		if i == 3 {
			fmt.Fprintf(r.out, "FAILED ... and %d more\n", len(why)-i)
			break
		}
		fmt.Fprintf(r.out, "FAILED %s\n", w)
	}
	if c := st.Counters; c.CacheHits != 0 || c.Coalesced != 0 {
		r.op(false, fmt.Sprintf("cold pass: %d cache hits, %d coalesced (must be 0)", c.CacheHits, c.Coalesced))
	}
}

// hotExpect renders the exact response each hot request must get: the
// cold answers, byte for byte, in hswd's encoding.
func hotExpect(cold coldSet, hot hotSet, answers []json.RawMessage) ([][]byte, error) {
	out := make([][]byte, len(hot.slots))
	for i, slots := range hot.slots {
		resp := server.Response{Results: make([]server.QueryResult, len(slots))}
		for j, s := range slots {
			resp.Results[j] = server.QueryResult{Key: cold.slots[s].key, Answer: answers[s]}
		}
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(resp); err != nil {
			return nil, err
		}
		out[i] = b.Bytes()
	}
	return out, nil
}

// bookHot counts a hot pass's slots as ops; every slot of a reply that was
// not 200 or whose bytes differ from the cold answers fails.
func bookHot(r *run, hot hotSet, p phase) {
	bad := 0
	for _, rp := range p.replies {
		r.ops += len(hot.slots[rp.idx])
		if rp.status != http.StatusOK || !rp.match {
			r.failed += len(hot.slots[rp.idx])
			bad++
		}
	}
	if bad != 0 {
		fmt.Fprintf(r.out, "FAILED %d hot requests: not 200, or bytes differ from the cold answers\n", bad)
	}
}

// checkHotStatz fails an op unless every slot since the restart was a
// journal hit.
func checkHotStatz(r *run, st server.Statz) {
	if c := st.Counters; c.CacheHits != c.Queries {
		r.op(false, fmt.Sprintf("hot passes: %d cache hits of %d slots (hit ratio must be 1)", c.CacheHits, c.Queries))
	}
}

// fill starts hswd on a fresh journal and answers the cold set once, so
// that the journal holds every answer. It returns the serving instance and
// the answers, and books the slots as ops.
func fill(r *run, journal string, cold coldSet, check *answerCheck) (*hswd, []json.RawMessage, error) {
	d, err := startHswd(journal, nil)
	if err != nil {
		return nil, nil, err
	}
	p, st, err := coldPass(d, cold, nil)
	if err != nil {
		_ = d.stop() // the pass's error is the one to report
		return nil, nil, err
	}
	answers, why := check.cold(cold, p.replies)
	bookCold(r, answers, why, st)
	for _, a := range answers {
		r.digest.Write(a)
	}
	fmt.Fprintf(r.out, "fill: %d slots in %.3fs\n", len(cold.slots), p.wall.Seconds())
	return d, answers, nil
}

func serveHeader(r *run, cold coldSet) {
	fmt.Fprintf(r.out, "closed loop, %d clients; cold batch %d (%d requests, %d distinct queries); hot batch %d (%d requests per pass)\n",
		serveClients, coldBatch, len(cold.reqs), len(cold.slots), hotBatch, hotPool)
}

// measureCold runs cold passes, each on a freshly started hswd, at least
// twice and again while half a pass's time of budget is left. Set-up (a
// start on a fresh journal, well under a millisecond) is sampled
// coldSetupReps times up front and once before every pass. The live heap
// is sampled after each pass, with the server and its memo still
// referenced and the pass's replies dropped, less the heap before any
// server started: the benchmark's own inputs are not the server's.
func measureCold(r *run) error {
	specs, _ := serveMix(r.seed)
	sets := make([]coldSet, maxColdPasses)
	for k := range sets {
		var err error
		if sets[k], err = coldSetFor(specs, r.seed, k); err != nil {
			return err
		}
	}
	serveHeader(r, sets[0])
	base := liveHeapMiB()
	var setups, walls, lat, heaps []float64
	for i := 0; i < coldSetupReps; i++ {
		d, secs, err := timedStart(r.path(fmt.Sprintf("setup%d.journal", i)), nil)
		if err != nil {
			return err
		}
		setups = append(setups, secs)
		if err := d.stop(); err != nil {
			return err
		}
	}
	var check answerCheck
	for k, set := range sets {
		d, secs, err := timedStart(r.path(fmt.Sprintf("pass%d.journal", k)), nil)
		if err != nil {
			return err
		}
		setups = append(setups, secs)
		runtime.GC()
		p, st, err := coldPass(d, set, nil)
		if err != nil {
			_ = d.stop() // the pass's error is the one to report
			return err
		}
		answers, why := check.cold(set, p.replies)
		bookCold(r, answers, why, st)
		if k == 0 {
			for _, a := range answers {
				r.digest.Write(a)
			}
		}
		walls = append(walls, p.wall.Seconds())
		lat = append(lat, p.latencies(time.Millisecond)...)
		fmt.Fprintf(r.out, "pass %d: %.3fs, %.1f queries/s, client cpu %.3fs\n",
			k, p.wall.Seconds(), float64(len(set.slots))/p.wall.Seconds(), p.cpu.Seconds())
		heaps = append(heaps, liveHeapMiB()-base) // the pass's replies are garbage by now
		runtime.KeepAlive(d)
		if err := d.stop(); err != nil {
			return err
		}
		if k >= 1 && r.left() < time.Duration(walls[k]*float64(time.Second))/2 {
			break
		}
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["wall_s"] = median(walls)
	r.metrics["live_heap_mib"] = median(heaps)
	fmt.Fprintf(r.out, "passes %d; cold request latency p50 %.3f ms, p90 %.3f ms; set-up samples %d\n",
		len(walls), median(lat), quantile(lat, 0.9), len(setups))
	return nil
}

// measureHot fills a journal, restarts hswd on it setupReps times (each
// restart a set-up sample), then runs hot passes at least twice and again
// while half a pass's time of budget is left. The live heap is sampled
// after the restarts, with the memo loaded, less the heap before the fill
// (the benchmark's own inputs); the expected hot replies are rendered
// after the samples.
func measureHot(r *run) error {
	specs, rng := serveMix(r.seed)
	cold, err := coldSetFor(specs, r.seed, 0)
	if err != nil {
		return err
	}
	hot, err := hotSetFor(cold, rng)
	if err != nil {
		return err
	}
	serveHeader(r, cold)
	base := liveHeapMiB()
	journal := r.path("memo.journal")
	var check answerCheck
	d, answers, err := fill(r, journal, cold, &check)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			_ = d.stop() // on an error path; that error is the one to report
		}
	}()
	var setups, heaps []float64
	for i := 0; i < setupReps; i++ {
		var secs float64
		if d, secs, err = restart(d, journal, nil); err != nil {
			return err
		}
		setups = append(setups, secs)
	}
	for i := 0; i < 5; i++ {
		heaps = append(heaps, liveHeapMiB()-base)
	}
	runtime.KeepAlive(d)
	expect, err := hotExpect(cold, hot, answers)
	if err != nil {
		return err
	}
	var walls, lat []float64
	var cpu time.Duration
	for k := 0; ; k++ {
		p, err := drive(d.addr, hot.reqs, expect, nil)
		if err != nil {
			return fmt.Errorf("hot pass: %w", err)
		}
		bookHot(r, hot, p)
		walls = append(walls, p.wall.Seconds())
		lat = append(lat, p.latencies(time.Microsecond)...)
		cpu += p.cpu
		if k >= 1 && r.left() < p.wall/2 {
			break
		}
	}
	st, err := d.statz()
	if err != nil {
		return err
	}
	checkHotStatz(r, st)
	err = d.stop()
	d = nil
	if err != nil {
		return err
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["wall_s"] = median(walls)
	r.metrics["live_heap_mib"] = median(heaps)
	fmt.Fprintf(r.out, "hot passes %d of %d requests: median %.4fs (%.0f queries/s); latency p50 %.1f us, p99 %.1f us; client cpu %.3fs of %.3fs\n",
		len(walls), hotPool, median(walls), hotPool*hotBatch/median(walls),
		median(lat), quantile(lat, 0.99), cpu.Seconds(), sum(walls))
	fmt.Fprintf(r.out, "restart %.4fs (median of %d)\n", median(setups), len(setups))
	return nil
}

// instrumentation is the traced pass's wrapping of the server.
type instrumentation struct {
	t        *tracer
	labelOp  map[string]string // query label → cold request op id
	runPoint func(*farm.Ctx, experiments.WhatIfSpec, experiments.WhatIfOptions) (experiments.WhatIfAnswer, error)
	wrap     func(http.Handler) http.Handler
}

// newInstrumentation records a server:handler span per request and an
// experiments:runpoint span per RunPoint call, under the op id of the cold
// request that carried the query.
func newInstrumentation(t *tracer, cold coldSet) *instrumentation {
	ins := &instrumentation{t: t, labelOp: map[string]string{}}
	for i, c := range cold.slots {
		ins.labelOp[c.q.Label] = coldOp(i / coldBatch)
	}
	ins.runPoint = func(fc *farm.Ctx, s experiments.WhatIfSpec, o experiments.WhatIfOptions) (a experiments.WhatIfAnswer, err error) {
		op := ins.labelOp[s.Label]
		t.do("experiments:runpoint", op, t.named(op, "server:handler"), func() { a, err = experiments.RunWhatIf(fc, s, o) })
		return a, err
	}
	ins.wrap = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			op := r.Header.Get(opHeader)
			if op == "" { // /statz
				h.ServeHTTP(w, r)
				return
			}
			t.do("server:handler", op, t.root(op), func() { h.ServeHTTP(w, r) })
		})
	}
	return ins
}

// traceCold is whatif-cold's traced run: one untraced cold pass, then one
// traced pass (client, handler and RunPoint spans; CPU profile) on a fresh
// journal, then the layer measurements made directly against the public
// APIs: journal re-open and appends, engine construction, and the first
// cold queries rebuilt from public constructors with a probe on each
// engine.
func traceCold(r *run) error {
	specs, _ := serveMix(r.seed)
	var sets [2]coldSet
	for k := range sets {
		var err error
		if sets[k], err = coldSetFor(specs, r.seed, k); err != nil {
			return err
		}
	}
	serveHeader(r, sets[0])
	var check answerCheck
	d, err := startHswd(r.path("untraced.journal"), nil)
	if err != nil {
		return err
	}
	u, st, err := coldPass(d, sets[0], nil)
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	answers, why := check.cold(sets[0], u.replies)
	bookCold(r, answers, why, st)
	for _, a := range answers {
		r.digest.Write(a)
	}

	t := newTracer()
	ins := newInstrumentation(t, sets[1])
	stopProfile, err := startProfile(r, "whatif-cold")
	if err != nil {
		return err
	}
	traced := r.path("traced.journal")
	d, err = startHswd(traced, ins)
	var tp phase
	if err == nil {
		tp, st, err = coldPass(d, sets[1], ins)
		if serr := d.stop(); err == nil {
			err = serr
		}
	}
	fold, perr := stopProfile()
	if err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	answers, why = check.cold(sets[1], tp.replies)
	bookCold(r, answers, why, st)

	open, appends, err := journalLayer(r, traced, sets[1], answers)
	if err != nil {
		return err
	}
	builds, err := envBuilds(sets[1])
	if err != nil {
		return err
	}
	rebuildWhatIf(r, t, sets[1], answers, 60)
	ops, err := t.report(r, "whatif-cold", fold)
	if err != nil {
		return err
	}
	admit, whatif, busy := serveLayers(t)
	r.setEngine(t, ops)
	r.setLayers(ops, "client:cold-request")
	r.setCPU(fold)
	r.metrics["experiments.env_build_ms"] = median(builds)
	r.metrics["invariant.full_check_ms"] = median(t.durationsMs("invariant:full_check"))
	// Each of the clients' in-flight requests runs its own serveShards
	// farm workers.
	r.metrics["farm.busy_share"] = busy / (tp.wall.Seconds() * float64(serveShards*serveClients))
	// hswd's defaults attach no flight recorder, and these what-ifs inject
	// no faults.
	r.bypassed("trace.events", "fault.injected", "fault.retries")
	r.setOverhead(u.wall, tp.wall)
	fmt.Fprintf(r.out, "detail: experiments.whatif_ms_p50 %.4g experiments.whatif_ms_p90 %.4g server.admit_ms_p50 %.4g\n",
		median(whatif), quantile(whatif, 0.9), median(admit))
	fmt.Fprintf(r.out, "detail: farm.journal_append_ms_p50 %.4g farm.journal_append_ms_p99 %.4g farm.journal_open_ms %.4g (%d entries)\n",
		median(appends), quantile(appends, 0.99), open, len(sets[1].slots))
	fmt.Fprintf(r.out, "detail: client.cpu_s %.4g (untraced pass of %.3fs)\n", u.cpu.Seconds(), u.wall.Seconds())
	fmt.Fprintf(r.out, "cpu top packages:%s\n", topPackages(fold, 8))
	return nil
}

// traceHot is whatif-hot's traced run: the fill, a restart and untraced
// hot passes, then a restart into the instrumented server and as many
// traced hot passes (client and handler spans; CPU profile), then the layer
// measurements made directly against the public APIs: the handler into an
// in-memory recorder, DecodeBatch, journal re-open and appends, engine
// construction, and the first fill queries rebuilt from public
// constructors with a probe on each engine — the hot path itself runs no
// engine.
func traceHot(r *run) error {
	specs, rng := serveMix(r.seed)
	cold, err := coldSetFor(specs, r.seed, 0)
	if err != nil {
		return err
	}
	hot, err := hotSetFor(cold, rng)
	if err != nil {
		return err
	}
	serveHeader(r, cold)
	journal := r.path("memo.journal")
	var check answerCheck
	d, answers, err := fill(r, journal, cold, &check)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			_ = d.stop() // on an error path; that error is the one to report
		}
	}()
	expect, err := hotExpect(cold, hot, answers)
	if err != nil {
		return err
	}
	// hotPasses runs tracedHotPasses passes, books them and returns their
	// summed wall time and client CPU time and their latencies.
	hotPasses := func(tr *tracer) (wall, cpu time.Duration, lat []float64, err error) {
		for k := 0; k < tracedHotPasses; k++ {
			p, err := drive(d.addr, hot.reqs, expect, tr)
			if err != nil {
				return 0, 0, nil, fmt.Errorf("hot pass: %w", err)
			}
			bookHot(r, hot, p)
			wall += p.wall
			cpu += p.cpu
			lat = append(lat, p.latencies(time.Microsecond)...)
		}
		return wall, cpu, lat, nil
	}
	if d, _, err = restart(d, journal, nil); err != nil {
		return err
	}
	uWall, uCPU, uLat, err := hotPasses(nil)
	if err != nil {
		return err
	}

	t := newTracer()
	ins := newInstrumentation(t, cold)
	if d, _, err = restart(d, journal, ins); err != nil {
		return err
	}
	stopProfile, err := startProfile(r, "whatif-hot")
	if err != nil {
		return err
	}
	tWall, _, _, err := hotPasses(t)
	fold, perr := stopProfile()
	if err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	st, err := d.statz()
	if err != nil {
		return err
	}
	checkHotStatz(r, st)

	// Handler cost without the network: ServeHTTP into a recorder.
	h := d.srv.Handler()
	var handler, decode []float64
	for i := 0; i < 2000; i++ {
		body := requestBody(hot.reqs[i])
		req := httptest.NewRequest(http.MethodPost, "/v1/whatif", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler = append(handler, float64(timed(func() { h.ServeHTTP(rec, req) }))/1e3)
		r.op(rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), expect[i]), "in-memory hot request differs from the cold answers")
		decode = append(decode, float64(timed(func() { server.DecodeBatch(bytes.NewReader(body), 1<<20, 64) }))/1e3)
	}
	err = d.stop()
	d = nil
	if err != nil {
		return err
	}

	open, appends, err := journalLayer(r, journal, cold, answers)
	if err != nil {
		return err
	}
	builds, err := envBuilds(cold)
	if err != nil {
		return err
	}
	rebuildWhatIf(r, t, cold, answers, 60)
	ops, err := t.report(r, "whatif-hot", fold)
	if err != nil {
		return err
	}
	r.setEngine(t, ops)
	r.setLayers(ops, "client:hot-request")
	r.setCPU(fold)
	r.metrics["experiments.env_build_ms"] = median(builds)
	r.metrics["invariant.full_check_ms"] = median(t.durationsMs("invariant:full_check"))
	// Journal hits run no farm point, recorder or fault injector.
	r.bypassed("trace.events", "fault.injected", "fault.retries", "farm.busy_share")
	r.setOverhead(uWall, tWall)
	handlerP50 := median(handler)
	fmt.Fprintf(r.out, "detail: server.decode_us %.4g server.handler_us_p50 %.4g server.handler_us_p99 %.4g server.net_us_p50 %.4g\n",
		sum(decode)/float64(len(decode)), handlerP50, quantile(handler, 0.99), median(uLat)-handlerP50)
	fmt.Fprintf(r.out, "detail: server.hit_ratio %.4g over %d slots; coalesced %d shed %d degraded %d\n",
		float64(st.Counters.CacheHits)/float64(st.Counters.Queries), st.Counters.Queries,
		st.Counters.Coalesced, st.Counters.Shed, st.Counters.Degraded)
	fmt.Fprintf(r.out, "detail: farm.journal_append_ms_p50 %.4g farm.journal_append_ms_p99 %.4g farm.journal_open_ms %.4g (%d entries)\n",
		median(appends), quantile(appends, 0.99), open, len(cold.slots))
	fmt.Fprintf(r.out, "detail: client.cpu_s %.4g (untraced passes of %.3fs)\n", uCPU.Seconds(), uWall.Seconds())
	fmt.Fprintf(r.out, "cpu top packages:%s\n", topPackages(fold, 8))
	return nil
}

// journalLayer times OpenJournal on a journal hswd wrote (in ms), and
// Journal.Record of the answers into a scratch journal, twice over (each
// in ms).
func journalLayer(r *run, path string, cold coldSet, answers []json.RawMessage) (float64, []float64, error) {
	var err error
	open := timed(func() {
		var j *farm.Journal
		if j, err = farm.OpenJournal(path, server.Campaign); err == nil {
			err = j.Close()
		}
	})
	if err != nil {
		return 0, nil, err
	}
	j, err := farm.OpenJournal(r.path("scratch.journal"), "perfbench/append")
	if err != nil {
		return 0, nil, err
	}
	var appends []float64
	for rep := 0; rep < 2; rep++ {
		for i, a := range answers {
			key := fmt.Sprintf("%d/%s", rep, cold.slots[i].key)
			var rerr error
			appends = append(appends, float64(timed(func() { rerr = j.Record(key, a) }))/1e6)
			if rerr != nil {
				_ = j.Close() // the record error is the one to report
				return 0, nil, rerr
			}
		}
	}
	return float64(open) / 1e6, appends, j.Close()
}

// envBuilds times NewEnvCfg three times on each configuration of the set
// (in ms).
func envBuilds(cold coldSet) ([]float64, error) {
	var builds []float64
	seen := map[string]bool{}
	for _, c := range cold.slots {
		s, _ := c.q.Spec() // validated when the set was built
		cfgKey := fmt.Sprint(s.Mode, s.Die, s.Protocol, s.Sockets)
		if seen[cfgKey] {
			continue
		}
		seen[cfgKey] = true
		for k := 0; k < 3; k++ {
			var err error
			builds = append(builds, float64(timed(func() { _, err = experiments.NewEnvCfg(s.Config()) }))/1e6)
			if err != nil {
				return nil, err
			}
		}
	}
	return builds, nil
}

// serveLayers derives the serving layer figures from the traced cold
// requests: admission delay (request start to its first RunPoint start),
// RunPoint durations (ms), and their sum (s).
func serveLayers(t *tracer) (admit, whatif []float64, busy float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	first := map[string]int64{}
	start := map[string]int64{}
	for _, s := range t.spans {
		switch s.Name {
		case "client:cold-request":
			start[s.Op] = s.Start
		case "experiments:runpoint":
			d := float64(s.End-s.Start) / 1e6
			whatif = append(whatif, d)
			busy += d / 1e3
			if f, ok := first[s.Op]; !ok || s.Start < f {
				first[s.Op] = s.Start
			}
		}
	}
	for op, f := range first {
		admit = append(admit, float64(f-start[op])/1e6)
	}
	return admit, whatif, busy
}

// rebuildWhatIf redoes the engine work of the first n cold queries from
// public constructors with a probe on each engine (RunWhatIf builds its
// engines internally), for the engine-level metrics, and checks each
// rebuilt answer against the served one.
func rebuildWhatIf(r *run, t *tracer, cold coldSet, answers []json.RawMessage, n int) {
	for i, c := range cold.slots[:min(n, len(cold.slots))] {
		s, _ := c.q.Spec()
		op := fmt.Sprintf("rebuild%d", i)
		var got experiments.WhatIfAnswer
		ok := true
		t.do("mesif:rebuild", op, 0, func() {
			var env *experiments.Env
			t.do("experiments:env", op, t.root(op), func() { env, _ = experiments.NewEnvCfg(s.Config()) })
			attachProbe(env.E, t.probe(op))
			latency := func(from, to int) *experiments.LatencyAnswer {
				core, owner := env.FirstCore(from), env.FirstCore(to)
				reg := env.Alloc(to, s.SizeBytes)
				env.Fresh()
				env.P.Modified(owner, reg)
				env.P.FlushAll(owner, reg)
				st := bench.Latency(env.E, core, reg)
				return &experiments.LatencyAnswer{Ns: st.MeanNs, Lines: st.N, RemoteDRAM: st.RemoteDRAM, RemoteFwd: st.RemoteFwd}
			}
			switch s.Kind {
			case experiments.WhatIfLatency:
				got.Latency = latency(s.From, s.To)
			case experiments.WhatIfBandwidth:
				core, owner := env.FirstCore(s.From), env.FirstCore(s.To)
				reg := env.Alloc(s.To, s.SizeBytes)
				env.Fresh()
				env.P.Modified(owner, reg)
				env.P.FlushAll(owner, reg)
				st := bwmodel.ReadStream(env.E, core, reg, bwmodel.AVX256, bwmodel.ConcurrencyFor(env.Mode))
				got.Bandwidth = &experiments.BandwidthAnswer{SingleGBps: st.GBps}
			case experiments.WhatIfPlacement:
				got.Placement = &experiments.PlacementAnswer{}
				for to := 0; to < env.M.Topo.Nodes(); to++ {
					got.Placement.LatencyNs = append(got.Placement.LatencyNs, latency(s.From, to).Ns)
				}
			}
			ok = env.Check.Err() == nil
			t.do("invariant:full_check", op, t.root(op), func() { ok = ok && len(invariant.Hard(invariant.Check(env.M))) == 0 })
		})
		var served experiments.WhatIfAnswer
		if err := json.Unmarshal(answers[i], &served); err != nil {
			ok = false
		}
		switch {
		case got.Latency != nil:
			ok = ok && served.Latency != nil && *got.Latency == *served.Latency
		case got.Bandwidth != nil:
			ok = ok && served.Bandwidth != nil && got.Bandwidth.SingleGBps == served.Bandwidth.SingleGBps
		case got.Placement != nil:
			ok = ok && served.Placement != nil && slices.Equal(got.Placement.LatencyNs, served.Placement.LatencyNs)
		}
		r.op(ok, fmt.Sprintf("rebuilt what-if %d (%s) differs from the served answer", i, s.Kind))
	}
}
