package main

import (
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"gendpr/internal/core"
	"gendpr/internal/federation"
	"gendpr/internal/service"
)

type runOptions struct {
	spec   spec
	seed   int64
	window time.Duration
	trace  bool
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// problems explains a run that is not correct; it goes to stderr.
	problems []string
	// samples counts the replies behind each latency figure; the run record
	// carries it.
	samples map[string]int
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// run executes one benchmark run: the untraced end-to-end measurement, or
// the traced per-layer one.
func run(o runOptions) (*result, error) {
	res := &result{Correct: true, Metrics: make(map[string]metric), samples: make(map[string]int)}
	var err error
	if o.trace {
		err = runTraced(o, res)
	} else {
		err = runUntraced(o, res)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	return res, nil
}

// warmupShare is the length of the unmeasured warm-up load relative to the
// window: it brings the heap and the member sessions to their steady state,
// which a single warm-up request does not.
const warmupShare = 6

// requests returns the workload's requests for one seed: a warm-up load and
// the measured one, both drawn from one generator so no fingerprint repeats.
func requests(o runOptions) (warm, main load) {
	g := newGenerator(o.spec, o.seed)
	warm.length = o.window / warmupShare
	main.length = o.window
	if o.spec.openRate > 0 {
		warm.schedule = g.openLoop(warm.length)
		main.schedule = g.openLoop(main.length)
	} else {
		warm.stream = &stream{g: g}
		main.stream = &stream{g: g}
	}
	return warm, main
}

func runUntraced(o runOptions, res *result) error {
	s := o.spec
	var (
		st     *stack
		setups []float64
	)
	for i := 0; i < s.setups; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if st, err = setup(s, false); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer st.close()
	warm, main := requests(o)
	wu := measure(st, warm)
	w := measure(st, main)
	var probe []outcome
	if s.openRate == 0 {
		probe = probeReuse(st, w.outs, o.window)
	}
	if err := st.drain(); err != nil {
		res.fail("%v", err)
	}
	orc := newOracle(st)
	if err := orc.prepare(concat(wu.outs, w.outs, probe)); err != nil {
		return err
	}
	checkWindow(s, orc, wu.outs, res)
	good := checkWindow(s, orc, w.outs, res)
	checkProbe(orc, probe, res)

	lat := latencies(w.outs, nil)
	fresh, reused := lat, latencies(probe, nil)
	if s.openRate > 0 {
		fresh, reused = latencies(w.outs, isFresh), latencies(w.outs, isReused)
	}
	res.set("setup_s", median(setups), "s")
	res.set("latency_ms_p50", ms(quantile(lat, 0.5)), "ms")
	res.set("latency_ms_tail", ms(tail(lat)), "ms")
	res.set("goodput_per_s", float64(good)/w.elapsed.Seconds(), "1/s")
	res.set("fresh_latency_ms_p50", ms(quantile(fresh, 0.5)), "ms")
	res.set("reused_latency_ms_p50", ms(quantile(reused, 0.5)), "ms")
	res.set("alloc_mb_per_request", float64(w.allocBytes)/1e6/float64(max(1, len(lat))), "MB")
	res.samples["setups"] = len(setups)
	res.samples["latency"] = len(lat)
	res.samples["latency_tail_rank"] = tailIndex(len(lat)) + 1
	res.samples["fresh"] = len(fresh)
	res.samples["reused"] = len(reused)
	return nil
}

func concat(lists ...[]outcome) []outcome {
	var all []outcome
	for _, l := range lists {
		all = append(all, l...)
	}
	return all
}

func isFresh(o outcome) bool  { return !o.reused() }
func isReused(o outcome) bool { return o.reused() }

// checkWindow checks every reply of a window against its oracle and the
// workload's reuse rules, counts attempts and failures into res, and
// returns the number of correct replies within the workload's latency
// limit.
func checkWindow(s spec, orc *oracle, outs []outcome, res *result) int {
	good := 0
	for _, out := range outs {
		res.Attempted++
		err := orc.check(out)
		switch {
		case err != nil:
		case !out.a.hot && out.reused():
			// A fresh fingerprint has nothing to resume or ride; closed
			// loops send nothing else.
			err = fmt.Errorf("fresh request MAF %v / LD %v came back resumed=%v coalesced=%v",
				out.a.maf, out.a.ld, out.reply.Resumed, out.reply.Coalesced)
		}
		if err != nil {
			res.Failed++
			res.fail("%v", err)
			continue
		}
		if out.latency() <= s.limit {
			good++
		}
	}
	if len(outs) == 0 {
		res.fail("the window completed no request")
	}
	return good
}

// checkProbe checks the reuse probe: every repeat must match its oracle
// and must have resumed from the retained checkpoint.
func checkProbe(orc *oracle, probe []outcome, res *result) {
	for _, out := range probe {
		res.Attempted++
		err := orc.check(out)
		if err == nil && !out.reply.Resumed {
			err = fmt.Errorf("repeated request MAF %v / LD %v did not resume", out.a.maf, out.a.ld)
		}
		if err != nil {
			res.Failed++
			res.fail("%v", err)
		}
	}
}

// runTraced measures an untraced window and then a traced window with the
// same requests on a traced stack. The per-layer metrics come from the
// traced window; the untraced one gives the tracing overhead and the
// selections the traced run must reproduce.
func runTraced(o runOptions, res *result) error {
	s := o.spec
	warm, main := requests(o)

	plain, err := setup(s, false)
	if err != nil {
		return err
	}
	baseWarm := measure(plain, warm)
	base := measure(plain, main)
	if err := plain.drain(); err != nil {
		res.fail("%v", err)
	}
	plain.close()

	st, err := setup(s, true)
	if err != nil {
		return err
	}
	defer st.close()
	tracedWarm := measure(st, warm)
	// Per-layer figures cover the measured window only.
	st.tracer.reset()
	w := measure(st, main)
	if err := st.drain(); err != nil {
		res.fail("%v", err)
	}

	orc := newOracle(st)
	if err := orc.prepare(concat(baseWarm.outs, base.outs, tracedWarm.outs, w.outs)); err != nil {
		return err
	}
	for _, outs := range [][]outcome{baseWarm.outs, base.outs, tracedWarm.outs, w.outs} {
		checkWindow(s, orc, outs, res)
	}
	checkTraced(st.tracer, orc, base.outs, w.outs, res)

	baseLat, tracedLat := latencies(base.outs, nil), latencies(w.outs, nil)
	untraced, traced := quantile(baseLat, 0.5), quantile(tracedLat, 0.5)
	res.set("tracing_overhead_pct", 100*(traced-untraced).Seconds()/untraced.Seconds(), "%")
	res.samples["untraced"] = len(baseLat)
	res.samples["traced"] = len(tracedLat)
	layerMetrics(st, w, res)
	return nil
}

// checkTraced holds the traced run to the untraced one: the probes hid no
// member capability, the members never fell back to single-pair or
// LR-matrix requests, every request selected what it selected untraced, and
// every run's full SNP sets equal the oracle's.
func checkTraced(t *tracer, orc *oracle, base, traced []outcome, res *result) {
	if n := t.unwrapped.Load(); n > 0 {
		res.fail("%d member providers could not be wrapped transparently", n)
	}
	if n := t.member.singleCalls.Load(); n > 0 {
		res.fail("members answered %d single-pair requests; the batch path was bypassed", n)
	}
	if n := t.member.lrMatrixCalls.Load(); n > 0 {
		res.fail("members built %d LR-matrices; the pattern path was bypassed", n)
	}
	for i := 0; i < len(base) && i < len(traced); i++ {
		a, b := base[i], traced[i]
		if a.a.shape() != b.a.shape() {
			res.fail("request %d differs between the untraced and the traced window", i)
			break
		}
		if a.err == nil && b.err == nil &&
			(a.reply.AfterMAF != b.reply.AfterMAF || a.reply.AfterLD != b.reply.AfterLD || a.reply.SafeCount != b.reply.SafeCount) {
			res.fail("request %d (MAF %v / LD %v) selected differently traced and untraced", i, a.a.maf, a.a.ld)
		}
	}
	t.mu.Lock()
	runs := append([]runRec(nil), t.runs...)
	t.mu.Unlock()
	for _, r := range runs {
		if r.report == nil {
			res.fail("a traced run failed")
			continue
		}
		a := assessment{maf: r.req.Config.MAFCutoff, ld: r.req.Config.LDCutoff, policy: r.req.Policy}
		want := orc.report(a.shape())
		if want == nil || !r.report.Selection.Equal(want.Selection) {
			res.fail("traced run MAF %v / LD %v: SNP sets differ from the oracle", a.maf, a.ld)
		}
	}
}

// layerMetrics derives the per-layer figures of the traced window. Counts
// and times without a percentile in their name are per protocol run
// (Backend.Run call), averaged over the window.
func layerMetrics(st *stack, w window, res *result) {
	t := st.tracer
	t.mu.Lock()
	events := append([]eventRec(nil), t.events...)
	runs := append([]runRec(nil), t.runs...)
	dials := append([]*dialRec(nil), t.dials...)
	t.mu.Unlock()
	perRun := func(total float64) float64 { return total / float64(max(1, len(runs))) }
	nsPerRun := func(total int64) float64 { return perRun(float64(total) / 1e6) }

	// Service layer: queue wait and server time from the lifecycle events,
	// paired per single-flight key (at most one run per key is live).
	waits, serverTime := serviceTimes(events)
	res.set("service.queue_wait_ms_p50", ms(quantile(waits, 0.5)), "ms")
	var backend []time.Duration
	for _, r := range runs {
		backend = append(backend, r.dur)
	}
	res.set("service.backend_ms_p50", ms(quantile(backend, 0.5)), "ms")
	var httpTimes []time.Duration
	for _, out := range w.outs {
		if out.err != nil {
			continue
		}
		if d, ok := serverTime(st.backend, out); ok {
			httpTimes = append(httpTimes, out.done.Sub(out.sent)-d)
		}
	}
	res.set("service.http_ms_p50", ms(quantile(httpTimes, 0.5)), "ms")
	var done, reused, coalesced int
	for _, out := range w.outs {
		if out.err != nil {
			continue
		}
		done++
		if out.reused() {
			reused++
		}
		if out.reply.Coalesced {
			coalesced++
		}
	}
	res.set("service.reused_share", float64(reused)/float64(max(1, done)), "ratio")
	res.set("service.coalesced_share", float64(coalesced)/float64(max(1, done)), "ratio")

	// Federation and transport: the raw member links, one dial per run.
	var firstRPC []time.Duration
	var sendNs, recvNs, bytes, msgs int64
	var kinds [32]int64
	for _, d := range dials {
		if ns := d.firstRPC.Load(); ns > 0 {
			firstRPC = append(firstRPC, time.Duration(ns))
		}
		sendNs += d.sendNs.Load()
		recvNs += d.recvNs.Load()
		bytes += d.meter.TotalBytes()
		msgs += d.meter.SentMessages() + d.meter.RecvMessages()
		for k := range kinds {
			kinds[k] += d.sends[k].Load()
		}
	}
	res.set("federation.first_rpc_ms", ms(mean(firstRPC)), "ms")
	res.set("federation.roundtrips_attest", perRun(float64(kinds[federation.KindAttestOffer])), "count")
	res.set("federation.roundtrips_counts", perRun(float64(kinds[federation.KindCountsRequest])), "count")
	res.set("federation.roundtrips_pair_batch", perRun(float64(kinds[federation.KindPairBatchRequest])), "count")
	res.set("federation.roundtrips_pattern", perRun(float64(kinds[federation.KindLRRequest])), "count")
	res.set("federation.recv_wait_ms", perRun(float64(recvNs)/1e6), "ms")
	res.set("transport.bytes", perRun(float64(bytes)), "B")
	res.set("transport.messages", perRun(float64(msgs)), "count")
	res.set("transport.send_ms", perRun(float64(sendNs)/1e6), "ms")

	// Core: the reports' phase timings and enclave peaks.
	var tm core.Timings
	var combos float64
	var enclavePeak, lrPeak int64
	for _, r := range runs {
		if r.report == nil {
			continue
		}
		tm = tm.Add(r.report.Timings)
		combos += float64(r.report.Combinations)
		enclavePeak = max(enclavePeak, r.report.PeakEnclaveBytes)
		lrPeak = max(lrPeak, r.report.PeakLRMatrixBytes)
	}
	res.set("core.aggregation_ms", nsPerRun(int64(tm.DataAggregation)), "ms")
	res.set("core.indexing_ms", nsPerRun(int64(tm.Indexing)), "ms")
	res.set("core.ld_ms", nsPerRun(int64(tm.LD)), "ms")
	res.set("core.lr_ms", nsPerRun(int64(tm.LRTest)), "ms")
	res.set("core.combinations", perRun(combos), "count")
	res.set("core.enclave_peak_kb", float64(enclavePeak)/1024, "KiB")
	res.set("core.lr_matrix_peak_kb", float64(lrPeak)/1024, "KiB")
	m := &t.member
	res.set("core.member_counts_ms", nsPerRun(m.countsNs.Load()), "ms")
	res.set("core.member_pair_batch_calls", perRun(float64(m.batchCalls.Load())), "count")
	res.set("core.member_pair_batch_ms", nsPerRun(m.batchNs.Load()), "ms")
	res.set("core.member_pair_single_calls", perRun(float64(m.singleCalls.Load())), "count")
	res.set("core.member_pattern_ms", nsPerRun(m.patternNs.Load()), "ms")

	// Checkpoint layer.
	res.set("checkpoint.saves", perRun(float64(t.store.saves.Load())), "count")
	res.set("checkpoint.save_ms", nsPerRun(t.store.saveNs.Load()), "ms")
	res.set("checkpoint.loads", perRun(float64(t.store.loads.Load())), "count")
	res.set("checkpoint.load_ms", nsPerRun(t.store.loadNs.Load()), "ms")

	res.set("loadgen.lag_ms_p99", ms(quantile(w.lags, 0.99)), "ms")
}

// serviceTimes pairs each run's lifecycle events by single-flight key: the
// queue wait (admitted to started) of every run, and a lookup of the
// server-side time (admission or coalescing to completion) behind a reply.
func serviceTimes(events []eventRec) ([]time.Duration, func(service.Backend, outcome) (time.Duration, bool)) {
	// A key is the resilience-mode bits followed by the hex fingerprint;
	// index by the fingerprint, which the client can compute.
	byKey := make(map[string][]eventRec)
	for _, e := range events {
		if i := strings.LastIndexByte(e.ev.Key, '-'); i >= 0 {
			fp := e.ev.Key[i+1:]
			byKey[fp] = append(byKey[fp], e)
		}
	}
	var waits []time.Duration
	for _, evs := range byKey {
		var admitted time.Time
		for _, e := range evs {
			switch e.ev.Event {
			case service.EventAdmitted:
				admitted = e.at
			case service.EventStarted:
				waits = append(waits, e.at.Sub(admitted))
			}
		}
	}
	lookup := func(b service.Backend, out outcome) (time.Duration, bool) {
		fp := hex.EncodeToString(b.Fingerprint(service.Request{Config: out.a.config(), Policy: out.a.policy}))
		evs := byKey[fp]
		// The reply's own entry is the first admission (or, for a follower,
		// the first coalescing) at or after its send; its run ends at the
		// next completion of the key.
		entry := service.EventAdmitted
		if out.reply.Coalesced {
			entry = service.EventCoalesced
		}
		var from time.Time
		for _, e := range evs {
			switch {
			case from.IsZero() && e.ev.Event == entry && !e.at.Before(out.sent):
				from = e.at
			case !from.IsZero() && e.ev.Event == service.EventCompleted:
				return e.at.Sub(from), true
			}
		}
		return 0, false
	}
	return waits, lookup
}

// latencies returns the latencies of the successful outcomes that keep
// passes (all of them when keep is nil).
func latencies(outs []outcome, keep func(outcome) bool) []time.Duration {
	var ds []time.Duration
	for _, o := range outs {
		if o.err == nil && (keep == nil || keep(o)) {
			ds = append(ds, o.latency())
		}
	}
	return ds
}

// quantile returns the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[quantileIndex(len(s), q)]
}

func quantileIndex(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

// tail returns the highest percentile, capped at p99, that leaves at least
// ten samples beyond it, and never below the median. Below 1,100 samples
// that is under p99 (see README.md).
func tail(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[tailIndex(len(s))]
}

// tailIndex is the index tail picks among n sorted samples.
func tailIndex(n int) int {
	return max(min(n-11, quantileIndex(n, 0.99)), quantileIndex(n, 0.5))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(max(1, len(ds)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
