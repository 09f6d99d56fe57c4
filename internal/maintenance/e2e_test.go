package maintenance

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/capacity"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/stats"
	"repro/internal/tinyllm"
	"repro/internal/transport"
)

// The migration e2e proves the acceptance scenario end to end: a
// rolling maintenance over a stage fleet drains devices, migrates
// in-flight generations to a destination pipeline with a *different*
// stage split whose first stage sits behind the chaos proxy (seeded
// cuts and stalls land mid-migration), restarts the drained source
// stage in place, health-checks it with a live generation, and
// re-admits the devices — with every migrated session's output
// bit-identical to an uninterrupted single-process reference run, and
// an infeasible drain refused before any device is touched.

var e2eCfg = tinyllm.Config{Name: "maint-e2e", Layers: 6, Hidden: 32, Heads: 4, FFN: 96, Vocab: 96, MaxPos: 64}

const e2eSeed = 2024

var e2eRetry = transport.RetryPolicy{MaxAttempts: 25, BaseDelay: time.Millisecond,
	MaxDelay: 10 * time.Millisecond, Jitter: 0.2, Seed: 9}

// e2ePipeline starts stage servers over the given cuts, optionally
// putting stage 0 behind a chaos proxy, and returns the servers, the
// driver, and a cleanup func.
func e2ePipeline(t *testing.T, cuts [][2]int, chaos func(p *transport.ChaosProxy)) ([]*transport.StageServer, *transport.Driver, func()) {
	t.Helper()
	var servers []*transport.StageServer
	var addrs []string
	for _, c := range cuts {
		s, err := transport.NewStageServer(e2eCfg, e2eSeed, nil, c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		addrs = append(addrs, addr)
	}
	var proxy *transport.ChaosProxy
	if chaos != nil {
		proxy = transport.NewChaosProxy(addrs[0])
		chaos(proxy)
		paddr, err := proxy.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[0] = paddr
	}
	d, err := transport.NewDriver(e2eCfg, e2eSeed, addrs)
	if err != nil {
		t.Fatal(err)
	}
	d.SetRetryPolicy(e2eRetry)
	cleanup := func() {
		d.Close()
		if proxy != nil {
			proxy.Close()
		}
		for _, s := range servers {
			s.Close()
		}
	}
	return servers, d, cleanup
}

func TestChaosMigrationE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e skipped in -short mode")
	}
	cases := []struct {
		name        string
		sessions    int
		promptSeed  uint64 // session i's prompt draws from promptSeed+i
		stall       time.Duration
		domains     [2]string // sessions pin to the first domain
		stepTimeout float64
	}{
		{name: "3 sessions", sessions: 3, promptSeed: 40, stall: 50 * time.Millisecond,
			domains: [2]string{"rack-a", "rack-b"}, stepTimeout: 30},
		{name: "8 sessions", sessions: 8, promptSeed: 100, stall: 20 * time.Millisecond,
			domains: [2]string{"dom-0", "dom-1"}, stepTimeout: 60},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Source pipeline: two stages; its sessions are what we migrate.
			srcServers, src, srcCleanup := e2ePipeline(t, [][2]int{{0, 3}, {3, 6}}, nil)
			defer srcCleanup()

			// Destination pipeline: a *different* three-stage split, stage 0
			// behind a chaos proxy injecting seeded cuts and stalls — the
			// migration replays must self-recover and still land on the exact
			// reference tokens.
			_, dst, dstCleanup := e2ePipeline(t, [][2]int{{0, 2}, {2, 4}, {4, 6}}, func(p *transport.ChaosProxy) {
				p.Randomize(2024, 0.01, 0.01, tc.stall)
			})
			defer dstCleanup()
			dst.SetIOTimeout(80 * time.Millisecond)

			// In-flight sessions: each has produced `before` tokens on the
			// source and still owes `after` more.
			const before, after = 6, 10
			type inflight struct {
				id       string
				prompt   []int
				produced []int
				log      *transport.TokenLog
			}
			var sessions []inflight
			for i := 0; i < tc.sessions; i++ {
				prompt := transport.RandomPrompt(stats.NewRNG(tc.promptSeed+uint64(i)), e2eCfg.Vocab, 10)
				produced, log, err := src.GenerateLog(prompt, before)
				if err != nil {
					t.Fatal(err)
				}
				sessions = append(sessions, inflight{
					id: string(rune('a' + i)), prompt: prompt, produced: produced, log: log,
				})
			}

			// Fleet: one 4-device pool; roll it in two failure domains.
			fleet := scheduler.NewFleetState([]scheduler.Resource{
				{Name: "stage-fleet", Cluster: capacity.FleetSpec{gpu.V100: 4}.Cluster("stage-fleet", 100), Availability: 1},
			})

			// Infeasible drain first: under heavy observed load the gate must
			// refuse before anything is preempted.
			_, err := New(Request{
				Targets: []Target{{Pool: "stage-fleet", Class: string(gpu.V100), Count: 2}},
			}, fleet, Hooks{Utilization: func(string) float64 { return 0.95 }})
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("overloaded drain: got %v, want ErrInfeasible", err)
			}
			if fleet.Preemptions() != 0 {
				t.Fatal("infeasible drain touched the fleet")
			}

			// The real roll: migrate all sessions off the first domain, restart
			// the source's stage 0 in place, health-check with a live
			// generation through the restarted stage.
			migrated := map[string][]int{}
			mig := &Migrator{Dest: dst}
			hooks := Hooks{
				Utilization: func(string) float64 { return 0.3 },
				Migrate: func(ctx context.Context, tg Target) (int, error) {
					if tg.Domain != tc.domains[0] {
						return 0, nil // sessions pin to the first domain only
					}
					var ss []Session
					for _, s := range sessions {
						ss = append(ss, Session{ID: s.id, Log: s.log, Remaining: after})
					}
					moved, err := mig.Move(ctx, ss)
					for _, m := range moved {
						migrated[m.ID] = m.Tokens
					}
					return len(moved), err
				},
				Restart: func(_ context.Context, tg Target) error {
					if tg.Domain != tc.domains[0] {
						return nil
					}
					return srcServers[0].Restart()
				},
				Health: func(_ context.Context, tg Target) error {
					// A live generation through the restarted stage proves the
					// chain serves again (the driver redials transparently).
					probe := transport.RandomPrompt(stats.NewRNG(7), e2eCfg.Vocab, 4)
					_, err := src.Generate(probe, 2)
					return err
				},
			}
			req := Request{
				Targets: []Target{
					{Pool: "stage-fleet", Class: string(gpu.V100), Count: 2, Domain: tc.domains[0]},
					{Pool: "stage-fleet", Class: string(gpu.V100), Count: 2, Domain: tc.domains[1]},
				},
				StepTimeoutSeconds: tc.stepTimeout,
				RetryBaseSeconds:   0.001,
			}
			o, err := New(req, fleet, hooks)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			o.Instrument(reg, nil)
			if err := o.Run(context.Background()); err != nil {
				t.Fatalf("maintenance failed: %v (status %+v)", err, o.Status())
			}

			st := o.Status()
			if st.State != StateDone || st.Rollback != 0 {
				t.Fatalf("state %s rollbacks %d, want done/0", st.State, st.Rollback)
			}
			if st.Migrated != len(sessions) {
				t.Fatalf("migrated %d sessions, want %d", st.Migrated, len(sessions))
			}
			v, _ := fleet.Snapshot("stage-fleet")
			if v.Devices != 4 || len(v.Preempted) != 0 {
				t.Fatalf("fleet not fully re-admitted: %+v", v)
			}

			// Bit-identity: source-produced prefix + migrated continuation must
			// equal an uninterrupted single-process reference run, despite the
			// chaos proxy's cuts/stalls during the migration replays.
			for _, s := range sessions {
				want, err := transport.Reference(e2eCfg, e2eSeed, nil, s.prompt, before+after)
				if err != nil {
					t.Fatal(err)
				}
				got := append(append([]int(nil), s.produced...), migrated[s.id]...)
				if len(got) != len(want) {
					t.Fatalf("session %s: %d tokens, want %d", s.id, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("session %s diverged at token %d: %d vs %d", s.id, i, got[i], want[i])
					}
				}
			}

			// Recovery counters stay bounded: the chaos probabilities are low,
			// so a runaway retry loop would show up here.
			if rs := dst.RecoveryStats(); rs.Recoveries > 20 {
				t.Fatalf("unbounded recovery churn during migration: %+v", rs)
			}
		})
	}
}
