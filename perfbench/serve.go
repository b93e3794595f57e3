package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/progen"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// The serve-mix traffic. Which request comes when, and with which
// program, is drawn from the workload seed. The program mix and the
// analyze share are cmd/pscload's, as the CI load smoke runs it
// (serve.LoadMix(8, 8), -analyze-every 8). No traffic data exists for the
// unseen-program and verify shares; they are assumptions (see README.md).
const (
	serveProcs  = 8 // machine size of compile and analyze requests (pscload's -procs)
	verifyProcs = 2 // machine size of verify requests (see README.md)
	hotProgen   = 8 // progen programs in the hot set beside the five kernels (pscload's -seeds)

	// verifyShare is the share of requests that are verifies.
	verifyShare = 0.05
	// unseenShare is the share of compile and analyze requests whose
	// program is new; the rest pick a hot-set program.
	unseenShare = 0.2
	// analyzeEvery: one compile or analyze request in analyzeEvery is an
	// analyze (pscload's -analyze-every).
	analyzeEvery = 8

	// nominalRate is the fixed arrival rate at which op_ms_p50/p90 are
	// measured, and nominalShare the part of the window it runs for; the
	// rest searches the goodput ladder.
	nominalRate  = 200.0
	nominalShare = 0.2
	// latencyLimit is the p99 a ladder rate must meet, timed from each
	// request's due time.
	latencyLimit = 100 * time.Millisecond
	// The goodput ladder: rate k is ladderBase·ladderStep^k requests per
	// second. Steps of 5% are finer than goodput's bound.
	ladderBase  = 200.0
	ladderStep  = 1.05
	ladderRungs = 63
	// ladderProbes is how many probes of equal length the ladder's time
	// is cut into: six for the binary search, the rest for the staircase.
	ladderProbes = 18
	// requestTimeout bounds one request on the client side.
	requestTimeout = 60 * time.Second
)

type reqKind int

const (
	kindHit     reqKind = iota // compile of a hot-set program
	kindMiss                   // compile of an unseen program
	kindAnalyze                // analyze of a hot-set or unseen program
	kindVerify                 // verify of an unseen small program
)

var (
	// unseenOpts shapes unseen programs like LoadMix's progen programs.
	unseenOpts = progen.Options{Procs: serveProcs}
	// verifyOpts shapes the small racy programs sent to the verifier: at
	// most 2 phases of 3 statements, nested one level deep, which bounds
	// the exact SC oracle's worst case (see README.md).
	verifyOpts = progen.Options{Procs: verifyProcs, MaxPhases: 2, MaxStmts: 3, MaxDepth: 1}
)

// program is one request body's source.
type program struct {
	src   string
	procs int
}

// programSet holds every program a run sends, each source distinct, so a
// program drawn as unseen is never a cache hit.
type programSet struct {
	progs []program
	seen  map[string]bool
	hot   []int // indices of the hot set
}

func (ps *programSet) add(src string, procs int) int {
	ps.seen[src] = true
	ps.progs = append(ps.progs, program{src, procs})
	return len(ps.progs) - 1
}

// fresh generates a program no earlier request has used.
func (ps *programSet) fresh(rng *rand.Rand, opts progen.Options) int {
	for {
		src := progen.Generate(rng.Int63(), opts)
		if !ps.seen[src] {
			return ps.add(src, opts.Procs)
		}
	}
}

// newProgramSet builds the hot set: pscload's program mix.
func newProgramSet() *programSet {
	ps := &programSet{seen: map[string]bool{}}
	for _, p := range serve.LoadMix(serveProcs, hotProgen) {
		ps.hot = append(ps.hot, ps.add(p.Source, serveProcs))
	}
	return ps
}

// phaseRNG returns the random source of one phase of a run: 1 is the
// nominal phase, 2+n the ladder's probe n.
func phaseRNG(seed int64, phase int) *rand.Rand {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(phase)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}

// request is one scheduled request.
type request struct {
	due  time.Duration // offset from the phase start
	kind reqKind
	prog int
}

// schedule draws Poisson arrivals at rate for dur. A request is a verify
// of a fresh small program with probability verifyShare. Otherwise its
// program is fresh with probability unseenShare or else a hot-set pick,
// and it is an analyze with probability 1/analyzeEvery or else a compile.
func schedule(rng *rand.Rand, ps *programSet, rate float64, dur time.Duration) []request {
	var out []request
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		req := request{due: time.Duration(t * float64(time.Second))}
		switch {
		case rng.Float64() < verifyShare:
			req.kind, req.prog = kindVerify, ps.fresh(rng, verifyOpts)
		case rng.Float64() < unseenShare:
			req.kind, req.prog = kindMiss, ps.fresh(rng, unseenOpts)
		default:
			req.kind, req.prog = kindHit, ps.hot[rng.Intn(len(ps.hot))]
		}
		if req.kind != kindVerify && rng.Intn(analyzeEvery) == 0 {
			req.kind = kindAnalyze
		}
		out = append(out, req)
	}
}

// outcome is what one request did.
type outcome struct {
	due, sent, done time.Time
	lag             time.Duration // dispatcher lateness past the due time
	skipped         bool          // not sent: the rung was abandoned
	err             error
	serverMs        float64
	cached          bool
	passes          []serve.PassStat
	target          [sha256.Size]byte // compile: digest of the target text
	counts          map[string]int    // compile misses: pass counters
	verifyOK, exact bool
	runs            int
}

func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// daemon is a running pscd process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed when pscd's stderr reaches EOF
	once    sync.Once
	err     error // the exit status stop returns
}

// startDaemon starts pscd on a free loopback port and waits until it
// answers /healthz.
func startDaemon(path string) (*daemon, error) {
	cmd := exec.Command(path, "-addr", "127.0.0.1:0", "-quiet")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pscd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			var ev struct{ Event, Addr string }
			if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Event == "listening" {
				select {
				case addrc <- ev.Addr:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case d.addr = <-addrc:
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("pscd did not report its listen address")
	}
	c := client.New("http://" + d.addr)
	for deadline := time.Now().Add(30 * time.Second); !c.Healthy(context.Background()); {
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("pscd did not become healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return d, nil
}

// stop shuts pscd down with SIGTERM (SIGKILL if it does not drain), waits
// for it to exit and returns its exit status. Later calls return the same.
func (d *daemon) stop() error {
	d.once.Do(func() {
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			d.cmd.Process.Kill()
		}
		select {
		case <-d.drained:
		case <-time.After(20 * time.Second):
			d.cmd.Process.Kill()
			<-d.drained
		}
		d.err = d.cmd.Wait()
	})
	return d.err
}

// serveRun drives one pscd.
type serveRun struct {
	ps    *programSet
	cl    *client.Client
	conns int
}

// send makes one request and fills o.
func (s *serveRun) send(req request, o *outcome) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	p := s.ps.progs[req.prog]
	o.sent = time.Now()
	switch req.kind {
	case kindHit, kindMiss:
		resp, err := s.cl.Compile(ctx, &serve.CompileRequest{Source: p.src, Procs: p.procs})
		if o.err = err; err == nil {
			o.serverMs, o.cached, o.passes = resp.ElapsedMs, resp.Cached, resp.Passes
			o.target = sha256.Sum256([]byte(resp.Target))
			if !resp.Cached {
				o.counts = map[string]int{}
				for _, st := range resp.Passes {
					for k, v := range st.Counters {
						o.counts[st.Name+"."+k] += v
					}
				}
			}
		}
	case kindAnalyze:
		resp, err := s.cl.Analyze(ctx, &serve.AnalyzeRequest{Source: p.src, Procs: p.procs})
		if o.err = err; err == nil {
			o.serverMs, o.cached = resp.ElapsedMs, resp.Cached
			if resp.D1Pairs > resp.DelayPairs || resp.DelayPairs > resp.BaselinePairs {
				o.err = fmt.Errorf("analyze: delay-set sizes out of order: |D1|=%d |D|=%d |baseline|=%d",
					resp.D1Pairs, resp.DelayPairs, resp.BaselinePairs)
			}
		}
	case kindVerify:
		resp, err := s.cl.Verify(ctx, &serve.VerifyRequest{Source: p.src, Procs: p.procs})
		if o.err = err; err == nil {
			o.serverMs, o.cached = resp.ElapsedMs, resp.Cached
			o.verifyOK, o.exact, o.runs = resp.OK, resp.ExactOracle, resp.Runs
		}
	}
	o.done = time.Now()
}

// runPhase sends reqs open-loop: a dispatcher releases each request at its
// due time into a queue that s.conns connections drain in order. When the
// queue holds more than abandonAt requests the backlog is growing without
// bound; the rest of the phase is abandoned (0: never).
func (s *serveRun) runPhase(reqs []request, abandonAt int) []outcome {
	out := make([]outcome, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the number of sends
	var abandoned atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < s.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if abandoned.Load() {
					out[i].skipped = true
					continue
				}
				s.send(reqs[i], &out[i])
			}
		}()
	}
	start := time.Now()
	for i, req := range reqs {
		due := start.Add(req.due)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		out[i].due = due
		out[i].lag = time.Since(due)
		if abandonAt > 0 && len(queue) > abandonAt {
			abandoned.Store(true)
			for j := i; j < len(reqs); j++ {
				out[j].skipped = true
			}
			break
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// meetsLimit reports whether a ladder rung kept up: nothing failed or was
// abandoned, p99 latency from due time is within latencyLimit, and the
// backlog did not grow (the last tenth of the requests waited no longer
// than the limit on average).
func meetsLimit(out []outcome) bool {
	var lats []float64
	for i := range out {
		if out[i].skipped || out[i].err != nil {
			return false
		}
		lats = append(lats, ms(out[i].latency()))
	}
	if len(lats) == 0 {
		return false
	}
	limit := ms(latencyLimit)
	tail := lats[len(lats)-len(lats)/10-1:]
	sum := 0.0
	for _, l := range tail {
		sum += l
	}
	return percentile(lats, 0.99) <= limit && sum/float64(len(tail)) <= limit
}

// ladderRate is rung k's arrival rate.
func ladderRate(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// runServe measures pscd under the open-loop mix: request latency at the
// nominal rate, then the goodput ladder.
func runServe(cfg config) (*result, error) {
	if cfg.pscd == "" {
		return nil, errors.New("serve-mix needs -pscd")
	}
	r := newResult()
	// Set-up runs before and after the window, each time in a fresh pscd,
	// so that setup_s samples the host at both ends of the run.
	var setups []time.Duration
	var d *daemon
	var ps *programSet
	for i := 0; i < setupReps-setupReps/2; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stop pscd: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if d, ps, err = setUpServe(cfg.pscd); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer d.stop()

	conns := runtime.NumCPU()
	s := &serveRun{ps: ps, conns: conns, cl: client.New("http://"+d.addr, client.WithHTTPClient(&http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}))}

	// Nominal phase.
	nomDur := time.Duration(nominalShare * float64(cfg.window))
	nomReqs := schedule(phaseRNG(cfg.seed, 1), ps, nominalRate, nomDur)
	nom := s.runPhase(nomReqs, 0)
	// pscd's peak residency is read here: after the ladder it would depend
	// on how many artifacts the ladder's search happened to store.
	r.values["peak_mem_mb"] = peakRSSMB(d.cmd.Process.Pid)

	goodput, ladderReqs, ladder := s.climbLadder(r, cfg.seed, cfg.window-nomDur)
	r.values["goodput_per_s"] = goodput

	stats, err := s.cl.Stats(context.Background())
	if err != nil {
		return nil, fmt.Errorf("pscd stats: %w", err)
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop pscd: %w", err)
	}
	for i := 0; i < setupReps/2; i++ {
		t0 := time.Now()
		d, _, err := setUpServe(cfg.pscd)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		if err := d.stop(); err != nil {
			return nil, fmt.Errorf("stop pscd: %w", err)
		}
	}
	r.values["setup_s"] = medianDur(setups)

	checkServe(r, ps, append(ladderReqs, nomReqs), append(ladder, nom), stats)
	serveMetrics(r, nomReqs, nom, stats)
	if cfg.trace {
		// Spans are built from the recorded timestamps after the phase, so
		// tracing adds no work while requests are in flight.
		tr := newTracer()
		var on, off []float64
		for i := range nom {
			if nom[i].skipped || nom[i].err != nil {
				continue
			}
			if i%2 == 1 {
				addRequestSpans(tr, i, nomReqs[i], &nom[i])
				on = append(on, ms(nom[i].latency()))
			} else {
				off = append(off, ms(nom[i].latency()))
			}
		}
		tr.setLayerMetrics(r)
		setOverhead(r, on, off)
		if err := tr.write(cfg.tracePath()); err != nil {
			return nil, err
		}
	}
	r.note("req_ms_p50 %.4f ms, req_ms_p90 %.4f ms, req_ms_p99 %.4f ms (n=%d requests at %.0f req/s)",
		r.values["op_ms_p50"], r.values["op_ms_p90"], r.values["op_ms_p99"], len(nom), nominalRate)
	r.note("goodput_rps %.1f 1/s (p99 limit %v, ladder step %.0f%%)", r.values["goodput_per_s"],
		latencyLimit, 100*(ladderStep-1))
	return r, nil
}

// setUpServe starts pscd and warms its cache with the hot set.
func setUpServe(path string) (*daemon, *programSet, error) {
	d, err := startDaemon(path)
	if err != nil {
		return nil, nil, err
	}
	ps := newProgramSet()
	if err := warm(client.New("http://"+d.addr), ps); err != nil {
		d.stop()
		return nil, nil, fmt.Errorf("warm hot set: %w", err)
	}
	return d, ps, nil
}

// warm compiles and analyzes every hot-set program once, so that requests
// for them are cache hits.
func warm(cl *client.Client, ps *programSet) error {
	ctx := context.Background()
	for _, h := range ps.hot {
		p := ps.progs[h]
		if _, err := cl.Compile(ctx, &serve.CompileRequest{Source: p.src, Procs: p.procs}); err != nil {
			return err
		}
		if _, err := cl.Analyze(ctx, &serve.AnalyzeRequest{Source: p.src, Procs: p.procs}); err != nil {
			return err
		}
	}
	return nil
}

// climbLadder measures goodput within dur, in probes of dur/ladderProbes
// each. A binary search over the ladder, one probe per rung, finds the
// highest rung that keeps up. A staircase then runs from the rung above
// it for the rest of the time: up one rung after a probe that keeps up,
// down one after a probe that does not. Near capacity a single stall
// decides whether a probe keeps up, so one probe per rung decides little;
// the staircase probes the same few rungs again and again instead.
// Goodput is the median rate of the staircase probes that kept up, or the
// search's rung if none did (0 if no rung kept up at all). It returns
// every probe's requests and outcomes.
func (s *serveRun) climbLadder(r *result, seed int64, dur time.Duration) (float64, [][]request, [][]outcome) {
	deadline := time.Now().Add(dur)
	probeDur := dur / ladderProbes
	var ladderReqs [][]request
	var ladder [][]outcome
	probe := func(rung int) bool {
		rate := ladderRate(rung)
		reqs := schedule(phaseRNG(seed, 2+len(ladder)), s.ps, rate, probeDur)
		out := s.runPhase(reqs, int(rate)) // a second's worth of arrivals queued
		ladderReqs, ladder = append(ladderReqs, reqs), append(ladder, out)
		ok := meetsLimit(out)
		r.note("ladder probe %2d: rung %2d, %7.1f req/s, %5d requests, p99 %8.2f ms, keeps up %v",
			len(ladder), rung, rate, len(reqs), p99Ms(out), ok)
		return ok
	}
	lo, hi := -1, ladderRungs
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	var kept []float64
	for rung := min(lo+1, ladderRungs-1); !time.Now().Add(probeDur).After(deadline); {
		if probe(rung) {
			kept = append(kept, ladderRate(rung))
			rung = min(rung+1, ladderRungs-1)
		} else {
			rung = max(rung-1, 0)
		}
	}
	switch {
	case len(kept) > 0:
		return median(kept), ladderReqs, ladder
	case lo >= 0:
		return ladderRate(lo), ladderReqs, ladder
	}
	return 0, ladderReqs, ladder
}

// checkServe runs the output checks over every phase's requests: every
// request succeeded, every verify passed, every compile answer for a
// program was the same and equals a local compile of it, and pscd counted
// no errors or timeouts.
func checkServe(r *result, ps *programSet, reqs [][]request, outs [][]outcome, stats *serve.StatsResponse) {
	targets := map[int][sha256.Size]byte{}
	for p, out := range outs {
		for i := range out {
			o, req := &out[i], reqs[p][i]
			if o.skipped {
				continue
			}
			r.attempted++
			switch {
			case o.err != nil:
				r.fail("%s request: %v", serveKinds[req.kind], o.err)
			case req.kind == kindVerify && !o.verifyOK:
				r.fail("verify of a correct-by-construction program did not pass")
			case req.kind == kindHit || req.kind == kindMiss:
				if t, ok := targets[req.prog]; ok && t != o.target {
					r.fail("two compiles of one program returned different target text")
				}
				targets[req.prog] = o.target
			}
		}
	}
	for prog, digest := range targets {
		p := ps.progs[prog]
		local, err := splitc.Compile(p.src, splitc.Options{Procs: p.procs, Level: splitc.LevelOneWay})
		if err != nil {
			r.fail("local compile: %v", err)
		} else if sha256.Sum256([]byte(local.TargetText())) != digest {
			r.fail("pscd target text differs from a local compile")
		}
	}
	if stats.Errors != 0 || stats.Timeouts != 0 {
		r.fail("pscd counted %d errors and %d timeouts", stats.Errors, stats.Timeouts)
	}
}

func p99Ms(out []outcome) float64 {
	var lats []float64
	for i := range out {
		if !out[i].skipped && out[i].err == nil {
			lats = append(lats, ms(out[i].latency()))
		}
	}
	return percentile(lats, 0.99)
}

// serveMetrics computes the nominal phase's latency and layer figures.
func serveMetrics(r *result, reqs []request, out []outcome, stats *serve.StatsResponse) {
	var lats, lags, client, server, transport, wait, verifyMs []float64
	byKind := map[string][]float64{}
	cached, compiles, exact, verifies := 0, 0, 0, 0
	var missTimes []map[string]float64
	counts := map[string]float64{}
	for i := range out {
		o, req := &out[i], reqs[i]
		lags = append(lags, ms(o.lag))
		if o.skipped || o.err != nil {
			continue
		}
		lat := ms(o.latency())
		lats = append(lats, lat)
		kind := serveKinds[req.kind]
		if req.kind == kindHit && !o.cached {
			kind = "compile-miss"
		}
		byKind[kind] = append(byKind[kind], lat)
		c := ms(o.done.Sub(o.sent))
		client = append(client, c)
		server = append(server, o.serverMs)
		transport = append(transport, c-o.serverMs)
		switch req.kind {
		case kindHit, kindMiss:
			compiles++
			if o.cached {
				cached++
				continue
			}
			times := map[string]float64{}
			passMs := 0.0
			for _, st := range o.passes {
				times[passMetric(st.Name)] += float64(st.WallNs) / 1e9
				passMs += float64(st.WallNs) / 1e6
			}
			missTimes = append(missTimes, times)
			wait = append(wait, o.serverMs-passMs)
			addServeCounts(counts, o.counts)
		case kindVerify:
			verifies++
			if o.exact {
				exact++
			}
			counts["scverify.runs"] += float64(o.runs)
			if !o.cached {
				verifyMs = append(verifyMs, o.serverMs)
			}
		}
	}
	r.values["op_ms_p50"] = median(lats)
	r.values["op_ms_p90"] = percentile(lats, 0.9)
	r.values["op_ms_p99"] = percentile(lats, 0.99)
	for k, v := range medianMaps(missTimes) {
		r.values[k] = v
	}
	for k, v := range counts {
		r.values[k] = v
	}
	if c := counts["syncanal.r_classes"]; c > 0 {
		r.values["syncanal.accesses_per_class"] = counts["ir.accesses"] / c
	}
	r.values["serve.client_ms_p50"] = median(client)
	r.values["serve.server_ms_p50"] = median(server)
	r.values["serve.transport_ms_p50"] = median(transport)
	r.values["serve.wait_ms_p99"] = percentile(wait, 0.99)
	for _, k := range serveKinds {
		r.values["serve."+k+".ms_p50"] = median(byKind[k])
		r.values["serve."+k+".ms_p99"] = percentile(byKind[k], 0.99)
		r.note("%-12s n=%4d  p50 %8.3f ms  max %8.3f ms", k, len(byKind[k]), median(byKind[k]), percentile(byKind[k], 1))
	}
	if compiles > 0 {
		r.values["serve.hit_ratio"] = float64(cached) / float64(compiles)
	}
	if verifies > 0 {
		r.values["scverify.exact_oracle_ratio"] = float64(exact) / float64(verifies)
	}
	r.values["scverify.verify_ms_p50"] = median(verifyMs)
	r.values["serve.dedups"] = float64(stats.DedupHits)
	r.values["serve.timeouts"] = float64(stats.Timeouts)
	r.values["serve.store_bytes"] = float64(stats.StoreBytes)
	r.values["gen.lag_ms_p99"] = percentile(lags, 0.99)
}

// addServeCounts adds one compile miss's pass counters to the count
// metrics (sums over the nominal phase's misses).
func addServeCounts(m map[string]float64, c map[string]int) {
	for metric, counter := range map[string]string{
		"ir.accesses":           "build-ir.accesses",
		"delay.baseline_pairs":  "cycle-detect.baseline_delays",
		"delay.d1_pairs":        "sync-analysis.d1_delays",
		"delay.d_pairs":         "sync-analysis.final_delays",
		"delay.regions":         "sync-analysis.regions",
		"delay.largest_region":  "sync-analysis.largest_region",
		"syncanal.r_pairs":      "sync-analysis.precedence_pairs",
		"syncanal.r_classes":    "sync-analysis.r_classes",
		"codegen.gets.oneway":   "split-phase.gets",
		"codegen.puts.oneway":   "split-phase.puts",
		"codegen.stores.oneway": "insert-syncs.stores",
		"codegen.syncs.oneway":  "insert-syncs.syncs",
	} {
		m[metric] += float64(c[counter])
	}
}

// addRequestSpans records one request: the wait in the generator's queue
// (gen), the HTTP round trip (transport), the server's handling (serve),
// and inside it the work pscd reports: pass walls of a compile miss, the
// whole of an analyze or verify miss.
func addRequestSpans(tr *tracer, op int, req request, o *outcome) {
	root := tr.add(op, 0, "request", "gen", o.due, o.done)
	cl := tr.add(op, root, "client", "transport", o.sent, o.done)
	srvStart := o.done.Add(-time.Duration(o.serverMs * float64(time.Millisecond)))
	srv := tr.add(op, cl, serveKinds[req.kind], "serve", srvStart, o.done)
	if o.cached {
		return
	}
	switch req.kind {
	case kindHit, kindMiss:
		var phases []phase
		var total time.Duration
		for _, st := range o.passes {
			d := time.Duration(st.WallNs)
			phases = append(phases, phase{name: st.Name, layer: passLayer(st.Name), d: d})
			total += d
		}
		tr.addSeq(op, srv, o.done.Add(-total), phases)
	case kindAnalyze:
		tr.add(op, srv, "analyze", "syncanal", srvStart, o.done)
	case kindVerify:
		tr.add(op, srv, "verify", "scverify", srvStart, o.done)
	}
}
