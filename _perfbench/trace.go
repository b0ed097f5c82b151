package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gendpr/internal/checkpoint"
	"gendpr/internal/core"
	"gendpr/internal/enclave"
	"gendpr/internal/enclave/attest"
	"gendpr/internal/federation"
	"gendpr/internal/genome"
	"gendpr/internal/lrtest"
	"gendpr/internal/service"
	"gendpr/internal/transport"
)

// tracer collects the traced run's per-layer figures. It sees the program
// only through public seams: the service.Backend it wraps, the server's
// OnEvent sink, the checkpoint.Store it hands the server, the member
// providers it installs with federation.Member.WrapProvider, and the raw
// member links its LinkDialer creates.
type tracer struct {
	mu     sync.Mutex
	events []eventRec
	runs   []runRec
	dials  []*dialRec

	member memberCounters
	store  storeCounters
	// unwrapped counts member providers the probe could not wrap without
	// hiding a capability; any makes the traced run incorrect.
	unwrapped atomic.Int64
}

// eventRec is one service lifecycle event with the time the sink saw it.
type eventRec struct {
	at time.Time
	ev service.Event
}

// runRec is one Backend.Run call.
type runRec struct {
	start  time.Time
	dur    time.Duration
	req    service.Request
	report *core.Report
}

// dialRec is the raw traffic of the member links one Dial created, that is
// of one protocol run.
type dialRec struct {
	at time.Time
	// firstRPC is the delay from the dial to the first request for a
	// member-provider call on any of the run's links, in nanoseconds (0:
	// none yet; a run that replays every phase from its checkpoint makes
	// none).
	firstRPC atomic.Int64
	sends    [32]atomic.Int64 // leader-side sends by message kind
	sendNs   atomic.Int64
	recvNs   atomic.Int64
	meter    transport.Meter
}

type memberCounters struct {
	countsNs, batchCalls, batchNs, singleCalls, patternNs, lrMatrixCalls atomic.Int64
}

type storeCounters struct {
	saves, saveNs, loads, loadNs atomic.Int64
}

// reset forgets everything recorded so far. Callers reset between loads,
// when nothing is in flight.
func (t *tracer) reset() {
	t.mu.Lock()
	t.events, t.runs, t.dials = nil, nil, nil
	t.mu.Unlock()
	for _, c := range []*atomic.Int64{
		&t.member.countsNs, &t.member.batchCalls, &t.member.batchNs, &t.member.singleCalls,
		&t.member.patternNs, &t.member.lrMatrixCalls,
		&t.store.saves, &t.store.saveNs, &t.store.loads, &t.store.loadNs,
	} {
		c.Store(0)
	}
}

// event is the server's OnEvent sink.
func (t *tracer) event(e service.Event) {
	at := time.Now()
	t.mu.Lock()
	t.events = append(t.events, eventRec{at: at, ev: e})
	t.mu.Unlock()
}

// backendProbe times Backend.Run and keeps each run's report, so the traced
// run can compare full SNP sets with the oracle.
type backendProbe struct {
	inner service.Backend
	t     *tracer
}

func (b *backendProbe) Fingerprint(req service.Request) []byte { return b.inner.Fingerprint(req) }

func (b *backendProbe) Run(ctx context.Context, req service.Request, ck checkpoint.Store) (*core.Report, error) {
	start := time.Now()
	rep, err := b.inner.Run(ctx, req, ck)
	rec := runRec{start: start, dur: time.Since(start), req: req, report: rep}
	b.t.mu.Lock()
	b.t.runs = append(b.t.runs, rec)
	b.t.mu.Unlock()
	return rep, err
}

// newTracedBackend assembles the same federation service.NewInProcessBackend
// does, from the same public constructors, with two probes spliced in: every
// member's shard provider is wrapped, and every leader-side raw link is
// timed and metered.
func newTracedBackend(shards []*genome.Matrix, reference *genome.Matrix, t *tracer) (service.Backend, error) {
	authority, err := attest.NewAuthority()
	if err != nil {
		return nil, err
	}
	leaderPlatform, err := enclave.NewPlatform()
	if err != nil {
		return nil, err
	}
	leader, err := federation.NewLeader("gdo-0", shards[0], leaderPlatform, authority)
	if err != nil {
		return nil, err
	}
	members := make([]*federation.Member, 0, len(shards)-1)
	names := make([]string, 0, len(shards)-1)
	for i, shard := range shards[1:] {
		platform, err := enclave.NewPlatform()
		if err != nil {
			return nil, err
		}
		m, err := federation.NewMember(fmt.Sprintf("gdo-%d", i+1), shard, platform, authority)
		if err != nil {
			return nil, err
		}
		m.WrapProvider(t.wrapMember)
		members = append(members, m)
		names = append(names, m.ID())
	}
	dial := func() ([]federation.MemberLink, func(), error) {
		d := &dialRec{at: time.Now()}
		t.mu.Lock()
		t.dials = append(t.dials, d)
		t.mu.Unlock()
		links := make([]federation.MemberLink, len(members))
		var (
			mu    sync.Mutex
			conns []transport.Conn
			wg    sync.WaitGroup
		)
		for i, m := range members {
			member := m
			spawn := func() transport.Conn {
				leaderEnd, memberEnd := transport.Pipe()
				mu.Lock()
				conns = append(conns, leaderEnd)
				mu.Unlock()
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = member.Serve(memberEnd)
					_ = memberEnd.Close()
				}()
				return &linkConn{inner: transport.NewMetered(leaderEnd, &d.meter), d: d}
			}
			links[i] = federation.MemberLink{
				Conn:   spawn(),
				Name:   member.ID(),
				Redial: func() (transport.Conn, error) { return spawn(), nil },
			}
		}
		cleanup := func() {
			mu.Lock()
			ends := append([]transport.Conn(nil), conns...)
			mu.Unlock()
			for _, c := range ends {
				_ = c.Close()
			}
			wg.Wait()
		}
		return links, cleanup, nil
	}
	fb := &service.FederationBackend{
		Leader:      leader,
		Dial:        dial,
		Reference:   reference,
		MemberNames: names,
	}
	return &backendProbe{inner: fb, t: t}, nil
}

// linkConn is the leader's end of one raw member link: it counts sends by
// message kind (the kind travels in the clear as AEAD associated data) and
// times the leader's sends and its blocking receives.
type linkConn struct {
	inner transport.Conn
	d     *dialRec
}

func (c *linkConn) Send(m transport.Message) error {
	start := time.Now()
	err := c.inner.Send(m)
	c.d.sendNs.Add(int64(time.Since(start)))
	if int(m.Kind) < len(c.d.sends) {
		c.d.sends[m.Kind].Add(1)
	}
	switch m.Kind {
	case federation.KindCountsRequest, federation.KindPairRequest, federation.KindPairBatchRequest, federation.KindLRRequest:
		// Clamp to 1ns so a zero delay still marks the field as set.
		c.d.firstRPC.CompareAndSwap(0, max(1, int64(start.Sub(c.d.at))))
	}
	return err
}

func (c *linkConn) Recv() (transport.Message, error) {
	start := time.Now()
	m, err := c.inner.Recv()
	c.d.recvNs.Add(int64(time.Since(start)))
	return m, err
}

func (c *linkConn) Close() error { return c.inner.Close() }

// SetDeadline keeps the link cancellable: the leader arms deadlines to
// interrupt I/O when a run's context ends.
func (c *linkConn) SetDeadline(t time.Time) error {
	if d, ok := c.inner.(transport.Deadliner); ok {
		return d.SetDeadline(t)
	}
	return fmt.Errorf("perfbench: link has no deadline support")
}

// memberProbe wraps a member's shard provider and forwards both optional
// capabilities, so the member serves exactly the wire paths it serves
// untraced.
type memberProbe struct {
	inner   core.Provider
	batch   core.BatchPairProvider
	pattern core.PatternProvider
	c       *memberCounters
}

var (
	_ core.BatchPairProvider = (*memberProbe)(nil)
	_ core.PatternProvider   = (*memberProbe)(nil)
)

// wrapMember is the federation.Member.WrapProvider hook. A provider that
// lacks either capability is left unwrapped and marks the run incorrect,
// since wrapping it would change which protocol path the member takes.
func (t *tracer) wrapMember(p core.Provider) core.Provider {
	batch, okBatch := p.(core.BatchPairProvider)
	pattern, okPattern := p.(core.PatternProvider)
	if !okBatch || !okPattern {
		t.unwrapped.Add(1)
		return p
	}
	return &memberProbe{inner: p, batch: batch, pattern: pattern, c: &t.member}
}

func (m *memberProbe) Counts() ([]int64, error) {
	start := time.Now()
	counts, err := m.inner.Counts()
	m.c.countsNs.Add(int64(time.Since(start)))
	return counts, err
}

func (m *memberProbe) CaseN() (int64, error) { return m.inner.CaseN() }

func (m *memberProbe) PairStats(a, b int) (genome.PairStats, error) {
	m.c.singleCalls.Add(1)
	return m.inner.PairStats(a, b)
}

func (m *memberProbe) PairStatsBatch(pairs [][2]int) ([]genome.PairStats, error) {
	start := time.Now()
	stats, err := m.batch.PairStatsBatch(pairs)
	m.c.batchNs.Add(int64(time.Since(start)))
	m.c.batchCalls.Add(1)
	return stats, err
}

func (m *memberProbe) LRMatrix(cols []int, caseFreq, refFreq []float64) (*lrtest.BitMatrix, error) {
	m.c.lrMatrixCalls.Add(1)
	return m.inner.LRMatrix(cols, caseFreq, refFreq)
}

func (m *memberProbe) LRPattern(cols []int) (*lrtest.BitMatrix, error) {
	start := time.Now()
	p, err := m.pattern.LRPattern(cols)
	m.c.patternNs.Add(int64(time.Since(start)))
	return p, err
}

// storeProbe times the checkpoint layer. Namespace wraps each run's
// sub-store with the same counters; over a store without namespaces it
// returns itself, which is where the server falls back to.
type storeProbe struct {
	inner checkpoint.Store
	t     *tracer
}

var _ checkpoint.Namespacer = (*storeProbe)(nil)

func (s *storeProbe) Save(st *checkpoint.State) error {
	start := time.Now()
	err := s.inner.Save(st)
	s.t.store.saveNs.Add(int64(time.Since(start)))
	s.t.store.saves.Add(1)
	return err
}

func (s *storeProbe) Load() (*checkpoint.State, error) {
	start := time.Now()
	st, err := s.inner.Load()
	s.t.store.loadNs.Add(int64(time.Since(start)))
	s.t.store.loads.Add(1)
	return st, err
}

func (s *storeProbe) Clear() error { return s.inner.Clear() }

func (s *storeProbe) Namespace(name string) checkpoint.Store {
	ns, ok := s.inner.(checkpoint.Namespacer)
	if !ok {
		return s
	}
	return &storeProbe{inner: ns.Namespace(name), t: s.t}
}
