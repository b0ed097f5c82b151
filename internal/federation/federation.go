package federation

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"

	"gendpr/internal/checkpoint"
	"gendpr/internal/core"
	"gendpr/internal/enclave"
	"gendpr/internal/enclave/attest"
	"gendpr/internal/genome"
	"gendpr/internal/transport"
	"gendpr/internal/vcf"
)

// Result bundles the leader's report with which member was elected leader.
type Result struct {
	Report      *core.Report
	LeaderIndex int
	// MemberSelections holds the selection each member received via the
	// final broadcast, indexed by shard position (nil for the leader's own
	// slot, which holds the report directly).
	MemberSelections []*core.Selection
	// Traffic reports what actually crossed the attested channels.
	Traffic TrafficStats
	// Excluded lists the shard positions of members that failed and were
	// excluded under quorum degradation (empty unless RunOptions.MinQuorum
	// allowed the run to degrade).
	Excluded []int
	// Rejoined lists the shard positions of members that were excluded
	// mid-run and re-admitted at a later phase boundary under
	// RunOptions.AllowRejoin. A rejoined member never appears in Excluded.
	Rejoined []int
	// FormerLeaders lists, oldest first, the shard positions of leaders that
	// died mid-run and were replaced by re-election before this result was
	// produced. Empty unless the runner had to re-elect.
	FormerLeaders []int
}

// TrafficStats quantifies the paper's Section 7.1 bandwidth claim: members
// exchange encrypted intermediates instead of genome files.
type TrafficStats struct {
	// PerMemberBytes is the wire traffic (both directions, ciphertext) on
	// each member's channel, indexed by shard position; the leader's own
	// slot is zero.
	PerMemberBytes []int64
	// TotalBytes sums all channels.
	TotalBytes int64
	// TotalMessages counts protocol messages in both directions.
	TotalMessages int64
	// GenomeShipBytes is what centralizing would have cost instead: the
	// exact VCF-encoded size of every non-leader genotype shard (the paper
	// compares against shipping variant files).
	GenomeShipBytes int64
	// GenomePackedBytes is the bit-packed lower bound for the same shards
	// (2 bits per diploid genotype in the paper's accounting; 1 bit in this
	// library's haploid encoding).
	GenomePackedBytes int64
}

// SavingsFactor returns how many times cheaper the protocol traffic is than
// shipping the genomes (0 when nothing was exchanged).
func (t TrafficStats) SavingsFactor() float64 {
	if t.TotalBytes == 0 {
		return 0
	}
	return float64(t.GenomeShipBytes) / float64(t.TotalBytes)
}

// randomNonces draws one leader-election contribution per member.
func randomNonces(g int) ([][]byte, error) {
	nonces := make([][]byte, g)
	for i := range nonces {
		n := make([]byte, 16)
		if _, err := io.ReadFull(rand.Reader, n); err != nil {
			return nil, fmt.Errorf("federation: election nonce: %w", err)
		}
		nonces[i] = n
	}
	return nonces, nil
}

// assembleResult maps the leader's report back to shard positions.
func assembleResult(report *core.Report, leaderIdx int, g int, members []*Member, memberShards []int, meters []*transport.Meter, shards []*genome.Matrix) *Result {
	res := &Result{
		Report:           report,
		LeaderIndex:      leaderIdx,
		MemberSelections: make([]*core.Selection, g),
		Traffic:          trafficStats(meters, shards, leaderIdx),
	}
	for j, shardIdx := range memberShards {
		res.MemberSelections[shardIdx] = members[j].LastResult()
	}
	// Report.Excluded uses provider indices (0 = leader's shard); translate
	// to shard positions for the federation-level view.
	for _, e := range report.Excluded {
		if e >= 1 && e <= len(memberShards) {
			res.Excluded = append(res.Excluded, memberShards[e-1])
		}
	}
	for _, e := range report.Rejoined {
		if e >= 1 && e <= len(memberShards) {
			res.Rejoined = append(res.Rejoined, memberShards[e-1])
		}
	}
	return res
}

// ErrNoElectableLeader is returned when every candidate leader has died and
// nobody is left to coordinate the assessment.
var ErrNoElectableLeader = errors.New("federation: every candidate leader has failed")

// RunInProcess assembles a complete federation inside one process: one
// platform and enclave per shard, random leader election, attested in-memory
// channels, and a full protocol run. It is the reference deployment used by
// tests, examples and benchmarks; RunOverTCP runs the same nodes across real
// sockets.
//
// opts sets the fault-tolerance envelope. Without any fault-tolerance option
// the run is the base protocol: the leader never redials a member, and a
// member's serving error fails the run. With one (a deadline, retries, a
// quorum, Byzantine handling, rejoin, or an event observer) the leader may
// redial a dropped channel — a fresh pipe and serving goroutine, re-attested
// — and member serving errors do not fail the run: the leader's report,
// including its excluded-member list, is authoritative.
//
// The runner is also the Section 5.2 leader-failover loop: should the
// elected leader die mid-run, the survivors re-run the committed-nonce
// election among themselves — a dead leader is struck from the electable
// set, though its restarted node keeps contributing its shard as an ordinary
// member — and the new leader resumes from opts.Checkpoints rather than
// recomputing completed phases. Nothing kills a leader inside one process,
// so a run makes one attempt unless the chaos harness schedules a death.
func RunInProcess(shards []*genome.Matrix, reference *genome.Matrix, cfg core.Config, policy core.CollusionPolicy, opts RunOptions) (*Result, error) {
	return runFederation(shards, reference, cfg, policy, opts, pipeLinker, runHooks{})
}

// RunOverTCP runs the same federation across loopback TCP sockets: each
// member listens on an ephemeral port and keeps accepting connections until
// it serves a clean shutdown or its listener closes, so a leader redial after
// a connection drop reaches a live serving loop.
func RunOverTCP(shards []*genome.Matrix, reference *genome.Matrix, cfg core.Config, policy core.CollusionPolicy, opts RunOptions) (*Result, error) {
	return runFederation(shards, reference, cfg, policy, opts, tcpLinker, runHooks{})
}

// faultInjector wraps the leader end of a member channel, below attestation
// and encryption, so injected faults exercise the full recovery path
// including re-attestation.
type faultInjector func(shardIdx int, conn transport.Conn) transport.Conn

// memberPrep adjusts a freshly built member node before it starts serving —
// the chaos harness installs a Byzantine provider wrapper with it via
// Member.WrapProvider.
type memberPrep func(shardIdx int, m *Member)

// failoverHook may wrap one attempt's checkpoint store, and it receives the
// cancel function that stands in for that attempt's leader process dying.
type failoverHook func(attempt, leaderIdx int, cancel context.CancelFunc, store checkpoint.Store) checkpoint.Store

// runHooks are the chaos harness's interception points; production runs
// pass the zero value.
type runHooks struct {
	inject   faultInjector
	prep     memberPrep
	failover failoverHook
}

// linker starts serving member m for one attempt and returns how the leader
// dials it: a fresh in-memory pipe per dial, or a loopback TCP connection.
type linker func(s *sessions, m *Member, opts RunOptions) (func() (transport.Conn, error), error)

// sessions tracks the member side of one attempt: the serving goroutines the
// attempt waits for, the listeners it closes, and the serving errors.
type sessions struct {
	wg        sync.WaitGroup
	mu        sync.Mutex
	errs      []error
	listeners []*transport.Listener
}

func (s *sessions) record(err error) {
	s.mu.Lock()
	s.errs = append(s.errs, err)
	s.mu.Unlock()
}

// pipeLinker dials a member through in-memory pipes: each dial is a fresh
// pipe whose far end a new goroutine serves, so a reconnecting leader talks
// to a live serving loop with fresh AEAD state.
func pipeLinker(s *sessions, m *Member, _ RunOptions) (func() (transport.Conn, error), error) {
	return func() (transport.Conn, error) {
		leaderEnd, memberEnd := transport.Pipe()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := m.Serve(memberEnd); err != nil {
				s.record(err)
			}
		}()
		return leaderEnd, nil
	}, nil
}

// tcpLinker dials a member across a loopback listener with one accept loop:
// it serves connection after connection and stops once a session ends in a
// clean shutdown or the listener closes.
func tcpLinker(s *sessions, m *Member, opts RunOptions) (func() (transport.Conn, error), error) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.listeners = append(s.listeners, l)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			err = m.Serve(conn)
			_ = conn.Close()
			if err == nil {
				return
			}
			s.record(err)
		}
	}()
	return func() (transport.Conn, error) {
		return transport.DialTimeout(l.Addr(), opts.dialTimeout())
	}, nil
}

// runFederation is the body both runners share: the election loop, and per
// attempt the member nodes, their links, and the leader's protocol run.
func runFederation(shards []*genome.Matrix, reference *genome.Matrix, cfg core.Config, policy core.CollusionPolicy, opts RunOptions, connect linker, hooks runHooks) (*Result, error) {
	g := len(shards)
	if g == 0 {
		return nil, core.ErrNoMembers
	}
	authority, err := attest.NewAuthority()
	if err != nil {
		return nil, fmt.Errorf("federation: %w", err)
	}
	dead := make(map[int]bool, g)
	var former []int
	for attempt := 0; ; attempt++ {
		// The Section 5.2 election over the surviving candidates. The shard
		// identities (and with them the checkpoint fingerprint) stay fixed;
		// only who coordinates changes.
		electable := make([]int, 0, g)
		for i := 0; i < g; i++ {
			if !dead[i] {
				electable = append(electable, i)
			}
		}
		if len(electable) == 0 {
			return nil, ErrNoElectableLeader
		}
		nonces, err := randomNonces(len(electable))
		if err != nil {
			return nil, err
		}
		idx, err := ElectLeader(nonces, len(electable))
		if err != nil {
			return nil, err
		}
		leaderIdx := electable[idx]
		platform, err := enclave.NewPlatform()
		if err != nil {
			return nil, fmt.Errorf("federation: %w", err)
		}
		leader, err := NewLeader(fmt.Sprintf("gdo-%d", leaderIdx), shards[leaderIdx], platform, authority)
		if err != nil {
			return nil, err
		}

		ctx, cancel := context.WithCancel(context.Background())
		attemptOpts := opts
		if hooks.failover != nil {
			attemptOpts.Checkpoints = hooks.failover(attempt, leaderIdx, cancel, opts.Checkpoints)
		}
		res, err := runAttempt(ctx, leader, authority, leaderIdx, shards, reference, cfg, policy, attemptOpts, connect, hooks)
		cancel()
		if err == nil {
			res.FormerLeaders = former
			return res, nil
		}
		if !errors.Is(err, context.Canceled) {
			return nil, err
		}
		// The leader died mid-run: strike it from the electable set, keep its
		// checkpoints, and let the survivors elect a successor.
		dead[leaderIdx] = true
		former = append(former, leaderIdx)
	}
}

// runAttempt executes one federation run under an already-elected leader:
// it starts the member nodes, links them, and drives the protocol, with ctx
// standing in for the leader's process lifetime.
func runAttempt(ctx context.Context, leader *Leader, authority *attest.Authority, leaderIdx int, shards []*genome.Matrix, reference *genome.Matrix, cfg core.Config, policy core.CollusionPolicy, opts RunOptions, connect linker, hooks runHooks) (*Result, error) {
	g := len(shards)
	s := &sessions{}
	var (
		members      = make([]*Member, 0, g-1)
		memberShards = make([]int, 0, g-1)
		links        = make([]MemberLink, 0, g-1)
		meters       = make([]*transport.Meter, g)
	)
	report, err := func() (*core.Report, error) {
		for i := 0; i < g; i++ {
			if i == leaderIdx {
				continue
			}
			platform, err := enclave.NewPlatform()
			if err != nil {
				return nil, fmt.Errorf("federation: %w", err)
			}
			member, err := NewMember(fmt.Sprintf("gdo-%d", i), shards[i], platform, authority)
			if err != nil {
				return nil, err
			}
			if hooks.prep != nil {
				hooks.prep(i, member)
			}
			dial, err := connect(s, member, opts)
			if err != nil {
				return nil, err
			}
			members = append(members, member)
			memberShards = append(memberShards, i)
			meter, shardIdx := &transport.Meter{}, i
			meters[i] = meter
			open := func() (transport.Conn, error) {
				raw, err := dial()
				if err != nil {
					return nil, err
				}
				var conn transport.Conn = transport.NewMetered(raw, meter)
				if hooks.inject != nil {
					conn = hooks.inject(shardIdx, conn)
				}
				return conn, nil
			}
			conn, err := open()
			if err != nil {
				return nil, err
			}
			link := MemberLink{Conn: conn, Name: member.ID()}
			if opts.faultAware() {
				link.Redial = open
			}
			links = append(links, link)
		}
		return leader.Run(ctx, links, reference, cfg, policy, opts)
	}()
	// Closing the leader ends and the listeners ends every serving session,
	// so the wait returns on every path, early failures included.
	for _, l := range links {
		_ = l.Conn.Close()
	}
	for _, l := range s.listeners {
		_ = l.Close()
	}
	s.wg.Wait()
	if err != nil {
		return nil, err
	}
	if !opts.faultAware() && len(s.errs) > 0 {
		return nil, errors.Join(s.errs...)
	}
	return assembleResult(report, leaderIdx, g, members, memberShards, meters, shards), nil
}

// trafficStats folds the per-channel meters into the result summary.
func trafficStats(meters []*transport.Meter, shards []*genome.Matrix, leaderIdx int) TrafficStats {
	stats := TrafficStats{PerMemberBytes: make([]int64, len(meters))}
	for i, m := range meters {
		if m == nil {
			continue
		}
		stats.PerMemberBytes[i] = m.TotalBytes()
		stats.TotalBytes += m.TotalBytes()
		stats.TotalMessages += m.SentMessages() + m.RecvMessages()
	}
	for i, s := range shards {
		if i != leaderIdx {
			stats.GenomeShipBytes += vcf.EstimateBytes(s)
			stats.GenomePackedBytes += s.SizeBytes()
		}
	}
	return stats
}
