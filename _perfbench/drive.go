package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"gendpr/internal/service"
)

// outcome is one request as the client saw it.
type outcome struct {
	a assessment
	// due is when the request was due: its send time in a closed loop, its
	// scheduled time in an open loop. Latency counts from it.
	due, sent, done time.Time
	reply           service.AssessResponse
	// err is an HTTP, transport or decoding failure, or an overload answer
	// (429/503).
	err error
}

func (o outcome) latency() time.Duration { return o.done.Sub(o.due) }

// reused reports whether the reply rode reuse instead of running the
// protocol.
func (o outcome) reused() bool { return o.reply.Resumed || o.reply.Coalesced }

// post sends one assessment to POST /assess and decodes the reply.
func (st *stack) post(a assessment) outcome {
	body, err := json.Marshal(service.AssessRequest{
		Tenant:       a.tenant,
		F:            a.policy.F,
		Conservative: a.policy.Conservative,
		MAFCutoff:    a.maf,
		LDCutoff:     a.ld,
	})
	o := outcome{a: a}
	if err != nil {
		o.err = err
		return o
	}
	o.sent = time.Now()
	o.due = o.sent
	resp, err := st.client.Post(st.url, "application/json", bytes.NewReader(body))
	if err != nil {
		o.done = time.Now()
		o.err = err
		return o
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	o.done = time.Now()
	switch {
	case err != nil:
		o.err = fmt.Errorf("reading reply: %w", err)
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		o.err = fmt.Errorf("shed: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	default:
		if err := json.Unmarshal(raw, &o.reply); err != nil {
			o.err = fmt.Errorf("decoding reply: %w", err)
		}
	}
	return o
}

// stream is a closed loop's request sequence, drawn on demand so that a
// traced window can replay exactly the requests of the untraced one.
type stream struct {
	g     *generator
	items []assessment
}

func (s *stream) at(i int) assessment {
	for len(s.items) <= i {
		s.items = append(s.items, s.g.fresh())
	}
	return s.items[i]
}

// window is one measured stretch of a workload.
type window struct {
	outs []outcome
	// lags is how late each request left the generator: in an open loop
	// against its schedule, in a closed loop against the previous reply.
	lags []time.Duration
	// elapsed is the time from the window's start to its last reply.
	elapsed time.Duration
	// allocBytes is runtime.MemStats.TotalAlloc's growth over the window.
	allocBytes uint64
}

// load is one stretch of a workload's requests: a closed loop's stream run
// for length, or an open loop's schedule.
type load struct {
	stream   *stream
	schedule []assessment
	length   time.Duration
}

// measure runs one window of the workload on st. It collects garbage first,
// so every window starts from the same heap state.
func measure(st *stack, l load) window {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var w window
	if l.schedule != nil {
		w = openLoop(st, l.schedule)
	} else {
		w = closedLoop(st, l.stream, l.length)
	}
	runtime.ReadMemStats(&after)
	w.allocBytes = after.TotalAlloc - before.TotalAlloc
	return w
}

// closedLoop sends the stream's requests one after another, each as soon as
// the previous reply arrived, until length has passed.
func closedLoop(st *stack, str *stream, length time.Duration) window {
	var w window
	start := time.Now()
	prev := start
	for i := 0; time.Since(start) < length; i++ {
		o := st.post(str.at(i))
		w.lags = append(w.lags, o.sent.Sub(prev))
		prev = o.done
		w.outs = append(w.outs, o)
	}
	w.elapsed = prev.Sub(start)
	return w
}

// openLoop sends the schedule's requests at their due times over at most
// maxConns connections, whatever the replies do. A request that finds both
// connections busy waits client-side; its latency still counts from its due
// time.
func openLoop(st *stack, schedule []assessment) window {
	w := window{outs: make([]outcome, len(schedule)), lags: make([]time.Duration, len(schedule))}
	// Sized to the schedule, so the generator never blocks on a send and
	// its lag measures only its own lateness.
	queue := make(chan int, len(schedule))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := st.post(schedule[i])
				o.due = start.Add(schedule[i].due)
				w.outs[i] = o
			}
		}()
	}
	for i, a := range schedule {
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		w.lags[i] = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	for _, o := range w.outs {
		if d := o.done.Sub(start); d > w.elapsed {
			w.elapsed = d
		}
	}
	return w
}

// probeReuse repeats a closed-loop window's requests one after another,
// cycling through them, for length (at least once); each finds its retained
// checkpoint and must resume.
func probeReuse(st *stack, outs []outcome, length time.Duration) []outcome {
	var probe []outcome
	start := time.Now()
	for i := 0; len(outs) > 0 && (i == 0 || time.Since(start) < length); i++ {
		probe = append(probe, st.post(outs[i%len(outs)].a))
	}
	return probe
}
