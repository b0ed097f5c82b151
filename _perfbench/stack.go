package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"gendpr/internal/bench"
	"gendpr/internal/checkpoint"
	"gendpr/internal/federation"
	"gendpr/internal/genome"
	"gendpr/internal/service"
)

// stack is one assembled service: cohort, federation, server and its
// loopback HTTP front end.
type stack struct {
	cohort    *genome.Cohort
	shards    []*genome.Matrix
	backend   service.Backend
	server    *service.Server
	http      *http.Server
	served    chan error
	client    *http.Client
	transport *http.Transport
	url       string
	// tracer is non-nil on a traced stack.
	tracer *tracer
}

// setup generates the cohort, shards it, assembles the federation and the
// service, starts the HTTP front end and sends the warm-up request. The
// returned stack must be closed.
func setup(s spec, traced bool) (*stack, error) {
	w := s.cohortWorkload()
	cfg := genome.DefaultGeneratorConfig(w.SNPs, w.CaseN(), bench.Seed)
	cfg.ReferenceN = w.ReferenceN()
	cohort, err := genome.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating cohort: %w", err)
	}
	shards, err := cohort.Partition(s.gdos)
	if err != nil {
		return nil, fmt.Errorf("sharding cohort: %w", err)
	}
	st := &stack{cohort: cohort, shards: shards}
	var store checkpoint.Store = checkpoint.NewMemStore()
	var onEvent func(service.Event)
	if traced {
		st.tracer = &tracer{}
		backend, err := newTracedBackend(shards, cohort.Reference, st.tracer)
		if err != nil {
			return nil, err
		}
		st.backend = backend
		store = &storeProbe{inner: store, t: st.tracer}
		onEvent = st.tracer.event
	} else {
		backend, err := service.NewInProcessBackend(shards, cohort.Reference, federation.RunOptions{})
		if err != nil {
			return nil, err
		}
		st.backend = backend
	}
	st.server, err = service.NewServer(service.Config{
		Backend:     st.backend,
		Checkpoints: store,
		Slots:       slots,
		OnEvent:     onEvent,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = st.server.Drain(context.Background())
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	st.url = "http://" + ln.Addr().String() + "/assess"
	st.http = &http.Server{Handler: st.server.Handler(), ReadHeaderTimeout: 10 * time.Second}
	st.served = make(chan error, 1)
	go func() { st.served <- st.http.Serve(ln) }()
	st.transport = &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	st.client = &http.Client{Transport: st.transport, Timeout: 60 * time.Second}

	warm := warmupAssessment(s)
	r := st.post(warm)
	if r.err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up request: %w", r.err)
	}
	if s.warm != nil {
		got := [4]int{r.reply.AfterMAF, r.reply.AfterLD, r.reply.SafeCount, r.reply.Combinations}
		if got != *s.warm {
			st.close()
			return nil, fmt.Errorf("warm-up at the paper defaults returned MAF/LD/LR/combinations %v, want %v", got, *s.warm)
		}
	}
	return st, nil
}

// maxConns bounds the client's connections to the machine's two cores.
const maxConns = 2

// drain stops the service, then checks its ledger the way gendpr-load does:
// every admitted request resolved, no slot or queue entry leaked.
func (st *stack) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := st.server.Drain(ctx); err != nil {
		return err
	}
	stats := st.server.Stats()
	if stats.InFlight != 0 || stats.Queued != 0 {
		return fmt.Errorf("leak: %d runs in flight, %d requests queued after drain", stats.InFlight, stats.Queued)
	}
	if d := stats.Admitted - stats.Completed - stats.Failed - stats.ShedAfterAdmission; d != 0 {
		return fmt.Errorf("ledger does not balance: %d admitted requests unaccounted for", d)
	}
	return nil
}

// close shuts the HTTP front end and the service down and waits for both.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = st.http.Shutdown(ctx)
	if err := <-st.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: HTTP front end: %v\n", err)
	}
	st.transport.CloseIdleConnections()
	if !st.server.Stats().Draining {
		_ = st.server.Drain(ctx)
	}
}
