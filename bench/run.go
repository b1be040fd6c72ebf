package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// check is one correctness check; a failed check is a failed operation.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// familyRow is the designer leg's result for one family.
type familyRow struct {
	Family        string             `json:"family"`
	ModelWords    int                `json:"model_words"`
	Compiles      int                `json:"compiles"`
	CompileS      float64            `json:"compile_s"`
	Batches       int                `json:"batches"`
	RunBatchMS    float64            `json:"runbatch_ms"`
	SimCycles     int64              `json:"sim_cycles"`
	ComputeCycles int64              `json:"compute_cycles"`
	MaxAbsErr     float64            `json:"sim_max_abs_err"`
	PerLayer      map[string]float64 `json:"per_layer,omitempty"`
}

// report is everything one run measured. Its values feed the result line;
// the rest is printed above it for a human reader.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Env       environment        `json:"environment"`
	Segments  int                `json:"segments"`
	Samples   map[string]int     `json:"sample_counts"`
	ModelHash string             `json:"model_hash"`
	HashRound int                `json:"model_hash_round"`
	Loss      map[string]float64 `json:"loss"`
	LossCurve []float64          `json:"loss_by_segment"`
	RateCurve []float64          `json:"rounds_per_s_by_segment"`
	Families  []familyRow        `json:"families"`
	Checks    []check            `json:"checks"`

	values    map[string]float64
	attempted int
	failed    int
}

func newReport(w workload, seed int64, seconds float64, traced bool) *report {
	return &report{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		Env:     readEnvironment(),
		Samples: map[string]int{}, Loss: map[string]float64{}, values: map[string]float64{},
	}
}

// set records a metric value and how many samples stand behind it.
func (r *report) set(name string, v float64, samples int) {
	r.values[name] = v
	r.Samples[name] = samples
}

// verify counts one checked operation.
func (r *report) verify(ok bool, name, detail string) {
	r.attempted++
	if !ok {
		r.failed++
	}
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: detail})
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ---- trainer leg -----------------------------------------------------------

// segment is one timed Train call of a fixed round count.
type segment struct {
	rounds     int
	wall, cpu  time.Duration
	mallocs    uint64
	allocBytes uint64
	recvBytes  int64
	lossAfter  float64
}

// pass is one cluster being driven segment by segment. The benchmark starts
// no goroutine of its own: the caller's goroutine drives every round, and
// everything between two segments (loss, hashes, allocator counters) runs
// outside the timed window.
type pass struct {
	name  string
	prob  *problem
	cl    *cluster
	model []float64

	setup, launch time.Duration
	segs          []segment
	roundMS       []float64
	excluded      int
	errored       int
	lastRecv      int64
	hash          string
	scrapes       []registrySnapshot
	// needLoss, when positive, keeps the pass training until the loss has
	// fallen to it.
	needLoss float64
}

// setUp generates the inputs, compiles the trainer's program if the nodes
// run the accelerator, launches the cluster and warms it up: everything
// between process start and the first timed round.
func setUp(name string, w workload, seed int64, rec *recorder, observed bool) (*pass, error) {
	start := time.Now()
	prob, err := newProblem(w.train.name, w.train.scale, w.lrScale, w.wideM, w.samples, w.evalN, seed)
	if err != nil {
		return nil, err
	}
	opts := clusterOptions{refThreads: w.refThreads, miniBatch: w.miniBatch, rec: rec, observed: observed}
	if w.accel {
		if opts.accel, err = compileProgram(prob, w.miniBatch/clusterNodes); err != nil {
			return nil, err
		}
	}
	launchStart := time.Now()
	cl, err := launch(prob, opts)
	if err != nil {
		return nil, err
	}
	ps := &pass{name: name, prob: prob, cl: cl, launch: time.Since(launchStart)}
	// Warm-up fills pools, caches and socket buffers; the model it trained
	// is dropped, so the timed rounds start from the initial model and the
	// convergence metrics see the whole descent.
	_, st, err := cl.train(prob.init, w.warmRounds)
	if err != nil {
		cl.shutdown()
		return nil, fmt.Errorf("%s warm-up: %w", name, err)
	}
	ps.model, ps.lastRecv = prob.init, st.recvBytes
	ps.setup = time.Since(start)
	return ps, nil
}

// runSegment times one Train call of w.segRounds rounds.
func (ps *pass) runSegment(w workload) error {
	mallocs0, bytes0 := memCounters()
	cpu0 := cpuTime()
	start := time.Now()
	model, st, err := ps.cl.train(ps.model, w.segRounds)
	wall := time.Since(start)
	cpu1 := cpuTime()
	mallocs1, bytes1 := memCounters()
	for _, d := range st.rounds {
		ps.roundMS = append(ps.roundMS, d.Seconds()*1e3)
	}
	if err != nil {
		ps.errored += w.segRounds - len(st.rounds)
		return fmt.Errorf("%s segment %d: %w", ps.name, len(ps.segs), err)
	}
	ps.model = model
	ps.excluded += st.excluded
	ps.segs = append(ps.segs, segment{
		rounds: w.segRounds, wall: wall, cpu: cpu1 - cpu0,
		mallocs: mallocs1 - mallocs0, allocBytes: bytes1 - bytes0,
		recvBytes: st.recvBytes - ps.lastRecv,
		lossAfter: ps.prob.loss(model),
	})
	ps.lastRecv = st.recvBytes
	if len(ps.segs) == hashSegments {
		ps.hash = modelHash(model)
	}
	if ps.cl.obs != nil {
		ps.scrapes = append(ps.scrapes, ps.cl.scrape())
	}
	return nil
}

// perSegment maps each segment through f.
func (ps *pass) perSegment(f func(segment) float64) []float64 {
	out := make([]float64, len(ps.segs))
	for i, s := range ps.segs {
		out[i] = f(s)
	}
	return out
}

func (ps *pass) rounds() int { return len(ps.roundMS) }

// reachedLoss returns the first segment whose closing loss is at or below
// target, or -1.
func (ps *pass) reachedLoss(target float64) int {
	for i, s := range ps.segs {
		if s.lossAfter <= target {
			return i
		}
	}
	return -1
}

// done reports whether the pass has trained for upTo in all. On the last
// slice of a run it must also have the floor of segments and rounds, and
// (final && the timed pass) have reached the loss target.
func (ps *pass) done(w workload, trained, upTo time.Duration, final bool) bool {
	if w.quick {
		return len(ps.segs) >= hashSegments
	}
	if trained < upTo {
		return false
	}
	if !final || trained > 8*upTo {
		return true // past 8x the budget: give up, the loss check fails the run
	}
	return len(ps.segs) >= minSegments && ps.rounds() >= minRounds &&
		(ps.needLoss == 0 || ps.reachedLoss(ps.needLoss) >= 0)
}

// finish shuts the cluster down and runs the checks every pass must pass.
func (ps *pass) finish(r *report) time.Duration {
	start := time.Now()
	sent, received, err := ps.cl.shutdown()
	took := time.Since(start)
	r.verify(err == nil, ps.name+"/shutdown-clean", fmt.Sprint(err))
	r.verify(sent == received && sent > 0, ps.name+"/sent-equals-received",
		fmt.Sprintf("sent %d B, received %d B", sent, received))
	finite := true
	for _, s := range ps.segs {
		finite = finite && !math.IsNaN(s.lossAfter) && !math.IsInf(s.lossAfter, 0)
	}
	r.verify(finite, ps.name+"/loss-finite", "")
	return took
}

// roundOps folds the pass's rounds into the operation counts: a round that
// errored, timed out or folded without every member is a failed operation.
func (ps *pass) roundOps(r *report) {
	r.attempted += ps.rounds() + ps.errored
	r.failed += ps.errored + ps.excluded
}

// ---- the timed run: end-to-end metrics -------------------------------------

func runTimed(w workload, seed int64, secs float64) (*report, error) {
	r := newReport(w, seed, secs, false)
	budget := time.Duration(secs * float64(time.Second))
	trainBudget := time.Duration(float64(budget) * w.trainShare)
	des, err := newDesigner(w, seed)
	if err != nil {
		return nil, err
	}

	// Set up several times and keep the last cluster: setup_s is a median.
	var setups []float64
	var ps *pass
	for i := 0; i < setupRepeats; i++ {
		if ps != nil {
			if _, _, err := ps.cl.shutdown(); err != nil {
				return nil, err
			}
		}
		if ps, err = setUp("timed", w, seed, nil, false); err != nil {
			return nil, err
		}
		setups = append(setups, ps.setup.Seconds())
	}
	r.set("setup_s", median(setups), len(setups))
	ps.needLoss = w.lossTarget

	// The two legs take turns, a slice of each at a time, so that each
	// metric's samples are spread over the whole run. The cluster sits idle
	// (its goroutines blocked on their sockets) while the designer works.
	var trained time.Duration
	var runErr error
	for k := 1; k <= slices && runErr == nil; k++ {
		if err := des.slice(r, (budget-trainBudget)/slices); err != nil {
			ps.cl.shutdown()
			return nil, err
		}
		upTo := trainBudget * time.Duration(k) / slices
		for runErr == nil && !ps.done(w, trained, upTo, k == slices) {
			start := time.Now()
			runErr = ps.runSegment(w)
			trained += time.Since(start)
		}
	}
	des.endToEnd(r)
	ps.finish(r)
	ps.roundOps(r)
	if runErr != nil || len(ps.segs) == 0 {
		return r, fmt.Errorf("timed pass failed: %v", runErr)
	}

	nseg := len(ps.segs)
	r.Segments = nseg
	r.ModelHash, r.HashRound = ps.hash, w.warmRounds+hashSegments*w.segRounds
	perRound := func(f func(segment) float64) float64 {
		return median(ps.perSegment(func(s segment) float64 { return f(s) / float64(s.rounds) }))
	}
	r.set("round_p50_ms", median(ps.roundMS), ps.rounds())
	r.set("rounds_per_s", median(ps.perSegment(func(s segment) float64 { return float64(s.rounds) / s.wall.Seconds() })), nseg)
	r.set("cpu_ms_per_round", perRound(func(s segment) float64 { return s.cpu.Seconds() * 1e3 }), nseg)
	r.set("allocs_per_round", perRound(func(s segment) float64 { return float64(s.mallocs) }), nseg)
	r.set("alloc_kb_per_round", perRound(func(s segment) float64 { return float64(s.allocBytes) / 1024 }), nseg)
	r.set("round_ok_ratio", 1-float64(ps.excluded+ps.errored)/float64(ps.rounds()+ps.errored), ps.rounds())

	wire := ps.perSegment(func(s segment) float64 { return float64(s.recvBytes) / float64(s.rounds) })
	r.set("wire_bytes_per_round", median(wire), nseg)
	r.verify(percentile(wire, 0) == percentile(wire, 1), "timed/wire-bytes-constant",
		fmt.Sprintf("%.0f to %.0f B per round across segments", percentile(wire, 0), percentile(wire, 1)))

	r.Loss["initial"] = ps.prob.loss(ps.prob.init)
	r.Loss["final"] = ps.segs[nseg-1].lossAfter
	r.Loss["target"] = w.lossTarget
	r.LossCurve = ps.perSegment(func(s segment) float64 { return s.lossAfter })
	r.RateCurve = ps.perSegment(func(s segment) float64 { return float64(s.rounds) / s.wall.Seconds() })
	hit := ps.reachedLoss(w.lossTarget)
	r.verify(w.quick || hit >= 0, "timed/loss-target-reached",
		fmt.Sprintf("loss %.4g -> %.4g, target %.4g", r.Loss["initial"], r.Loss["final"], w.lossTarget))
	r.verify(w.quick || r.Loss["final"] <= w.lossTarget, "timed/final-loss-under-target",
		fmt.Sprintf("final %.4g, target %.4g", r.Loss["final"], w.lossTarget))
	rounds, wall := ps.lossCrossing(w.lossTarget, r.Loss["initial"])
	r.set("rounds_to_loss", rounds, 1)
	r.set("time_to_loss_s", wall, 1)
	return r, nil
}

// lossCrossing returns the timed rounds and the timed wall seconds after
// which the loss first reached target. The loss is only known at segment
// boundaries, so the crossing inside the segment is placed by log-linear
// interpolation between its two ends (a descent is close to exponential);
// without it the answer would move in whole segments from seed to seed.
// If the target was never reached it returns the whole run.
func (ps *pass) lossCrossing(target, initial float64) (rounds, wall float64) {
	prev := initial
	for _, s := range ps.segs {
		if s.lossAfter <= target {
			frac := 1.0
			if prev > target && s.lossAfter > 0 {
				frac = math.Log(prev/target) / math.Log(prev/s.lossAfter)
			}
			return rounds + frac*float64(s.rounds), wall + frac*s.wall.Seconds()
		}
		prev = s.lossAfter
		rounds += float64(s.rounds)
		wall += s.wall.Seconds()
	}
	return rounds, wall
}

// ---- the traced run: per-layer metrics -------------------------------------

// observedRoundCap stops the observed pass once it has this many timed
// rounds: an Observer keeps every span of every round in memory (~20 KB a
// round), which on tiny's 40k rounds would be most of a gigabyte.
const observedRoundCap = 10000

// runTraced drives three clusters on the same inputs — plain, decorated
// with the Engine and Transport timers, and with an Observer attached —
// taking turns segment by segment, so that the box's speed phases fall on
// all three alike and the overhead ratios compare like with like.
func runTraced(w workload, seed int64, secs float64, traceOut string) (*report, error) {
	r := newReport(w, seed, secs, true)
	budget := time.Duration(secs * float64(time.Second))
	trainBudget := time.Duration(float64(budget) * w.trainShare)
	des, err := newDesigner(w, seed)
	if err != nil {
		return nil, err
	}
	if err := des.slice(r, (budget-trainBudget)/2); err != nil {
		return nil, err
	}
	if err := des.layers(r, (budget-trainBudget)/2); err != nil {
		return nil, err
	}

	rec := newRecorder(clusterNodes)
	plain, err := setUp("plain", w, seed, nil, false)
	if err != nil {
		return nil, err
	}
	goroutines := runtime.NumGoroutine()
	traced, err := setUp("traced", w, seed, rec, false)
	if err != nil {
		plain.cl.shutdown()
		return nil, err
	}
	observed, err := setUp("observed", w, seed, nil, true)
	if err != nil {
		plain.cl.shutdown()
		traced.cl.shutdown()
		return nil, err
	}
	passes := []*pass{plain, traced, observed}
	ioWarm, masterWarm := rec.ioTotal()
	eventsWarm := observed.cl.traceEvents()

	var trained time.Duration
	var runErr error
	for runErr == nil && !plain.done(w, trained, trainBudget, true) {
		start := time.Now()
		for _, ps := range passes {
			if ps == observed && ps.rounds() >= observedRoundCap {
				continue
			}
			if ps == traced {
				rec.openWindow()
			}
			runErr = ps.runSegment(w)
			rec.closeWindow()
			if runErr != nil {
				break
			}
		}
		trained += time.Since(start)
	}
	ioEnd, masterEnd := rec.ioTotal()
	events := observed.cl.traceEvents() - eventsWarm
	var shutdown time.Duration
	for i, ps := range passes {
		took := ps.finish(r)
		if i == 0 {
			shutdown = took
		}
		ps.roundOps(r)
	}
	if runErr != nil || len(plain.segs) == 0 {
		return r, fmt.Errorf("traced run failed: %v", runErr)
	}

	nseg, rounds := len(plain.segs), plain.rounds()
	r.Segments = nseg
	r.ModelHash, r.HashRound = plain.hash, w.warmRounds+hashSegments*w.segRounds
	r.verify(traced.hash == plain.hash && observed.hash == plain.hash && plain.hash != "",
		"decorators-perturb-nothing",
		fmt.Sprintf("model_hash after %d rounds: plain %s, traced %s, observed %s",
			r.HashRound, plain.hash, traced.hash, observed.hash))
	r.Loss["initial"] = plain.prob.loss(plain.prob.init)
	r.Loss["final"] = plain.segs[nseg-1].lossAfter

	p50 := median(plain.roundMS)
	rate := plain.perSegment(func(s segment) float64 { return float64(s.rounds) / s.wall.Seconds() })
	r.set("runtime.round_p99_ms", percentile(plain.roundMS, 0.99), rounds)
	r.set("runtime.round_max_ms", maxOf(plain.roundMS), rounds)
	r.set("runtime.segment_drift_pct", pctOver(rate[0], rate[nseg-1]), 2)
	r.set("runtime.launch_ms", plain.launch.Seconds()*1e3, 1)
	r.set("runtime.shutdown_ms", shutdown.Seconds()*1e3, 1)
	r.set("runtime.goroutines", float64(goroutines), 1)
	r.set("bench.trace_overhead_pct", pctOver(median(traced.roundMS), p50), traced.rounds())
	// The observed pass may have stopped early; compare it with the plain
	// pass over the same rounds.
	r.set("obs.round_overhead_pct",
		pctOver(median(observed.roundMS), median(plain.roundMS[:observed.rounds()])), observed.rounds())
	r.set("obs.trace_events_per_round", float64(events)/float64(observed.rounds()), observed.rounds())

	// Engine spans: the timed rounds of the traced pass follow its warm-up.
	from, to := w.warmRounds, w.warmRounds+traced.rounds()
	tracedP50US := median(traced.roundMS) * 1e3
	slowest := median(seconds(rec.slowestEngine(from, to))) * 1e6
	r.set("runtime.engine_us_p50", median(seconds(rec.engineDurations(from, to)))*1e6, clusterNodes*traced.rounds())
	r.set("runtime.engine_us_slowest_node", slowest, traced.rounds())
	r.set("runtime.noncompute_us", tracedP50US-slowest, traced.rounds())
	r.set("runtime.compute_frac", slowest/tracedP50US, traced.rounds())

	io, master := ioEnd.sub(ioWarm), masterEnd.sub(masterWarm)
	n := float64(traced.rounds())
	r.set("cosmicnet.frames_per_round", float64(io.frames)/n, traced.rounds())
	r.set("cosmicnet.writes_per_round", float64(io.writes)/n, traced.rounds())
	r.set("cosmicnet.reads_per_round", float64(io.reads)/n, traced.rounds())
	r.set("cosmicnet.bytes_per_write", float64(io.writeBytes)/float64(io.writes), int(io.writes))
	r.set("cosmicnet.write_us_per_round", float64(io.writeNS)/1e3/n, traced.rounds())
	r.set("cosmicnet.read_wait_us_per_round", float64(io.readNS)/1e3/n, traced.rounds())
	r.set("cosmicnet.master_tx_bytes_per_round", float64(master.writeBytes)/n, traced.rounds())

	const codecIters = 2000
	codec, err := measureCodec(plain.prob.frameWords(), codecIters)
	if err != nil {
		return r, err
	}
	r.set("cosmicnet.encode_ns_per_word", codec.encodeNSPerWord, codecIters)
	r.set("cosmicnet.decode_ns_per_word", codec.decodeNSPerWord, codecIters)
	r.set("cosmicnet.encode_allocs", codec.encodeAllocs, codecIters)
	r.set("cosmicnet.decode_allocs", codec.decodeAllocs, codecIters)

	db, err := measureTSDB(observed.scrapes, "cosmic_node_rounds_total", 100_000)
	if err != nil {
		return r, err
	}
	r.set("tsdb.append_ns_per_sample", db.appendNSPerSample, db.samples)
	r.set("tsdb.query_us", db.queryUS, 1)
	r.set("tsdb.bytes_per_sample", db.bytesPerSample, db.samples)
	r.set("proc.peak_rss_mb", peakRSSMB(), 1)

	if traceOut != "" {
		if err := rec.writeChromeTrace(traceOut); err != nil {
			return r, err
		}
	}
	return r, nil
}
