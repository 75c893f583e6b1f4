// Benchmarks for the elastic cluster plane (E22): the gossip beacon's wire
// cost, the live rebalancing planner, and end-to-end warm-standby snapshot
// shipping with acknowledgement. The gossip and replicate paths run on every
// heartbeat of every link, so their per-op allocation count is watched as
// closely as their latency.
package aas_test

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	aas "repro"

	"repro/internal/deploy"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// benchGossipView builds a converged-size view: 16 members, 4 components
// each — a realistic steady-state beacon payload.
func benchGossipView() wire.Gossip {
	g := wire.Gossip{Members: make([]wire.GossipMember, 16)}
	for i := range g.Members {
		m := &g.Members[i]
		m.Node = fmt.Sprintf("node-%02d", i)
		m.Addr = fmt.Sprintf("10.0.0.%d:7400", i+1)
		m.Incarnation = uint64(1700000000 + i)
		m.Version = uint64(1000 * i)
		m.Status = wire.GossipAlive
		m.Load = float64(i) * 1e5
		for c := 0; c < 4; c++ {
			m.Comps = append(m.Comps, wire.GossipComp{
				Name:     fmt.Sprintf("Comp-%02d-%d", i, c),
				Load:     float64(c) * 2.5e4,
				Follower: fmt.Sprintf("node-%02d", (i+1)%16),
			})
		}
	}
	return g
}

// BenchmarkMembershipGossipEncode measures the append-style serialisation of
// one full beacon — the sender side of every heartbeat.
func BenchmarkMembershipGossipEncode(b *testing.B) {
	view := benchGossipView()
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wire.AppendGossip(buf[:0], view)
	}
	if len(buf) == 0 {
		b.Fatal("empty gossip payload")
	}
}

// BenchmarkMembershipGossipRoundtrip measures encode plus parse — what a
// beacon costs the pair of nodes exchanging it.
func BenchmarkMembershipGossipRoundtrip(b *testing.B) {
	view := benchGossipView()
	buf := wire.AppendGossip(nil, view)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := wire.ParseGossip(buf)
		if err != nil || len(g.Members) != len(view.Members) {
			b.Fatalf("roundtrip: %v (%d members)", err, len(g.Members))
		}
	}
}

// benchLiveInput: 8 nodes, 64 components, all load piled on the first two
// nodes — the shape the rebalancer sees right after a scale-out.
func benchLiveInput() deploy.LiveInput {
	in := deploy.LiveInput{
		Placement: map[string]string{},
		Load:      map[string]float64{},
	}
	for n := 0; n < 8; n++ {
		in.Nodes = append(in.Nodes, fmt.Sprintf("node-%d", n))
	}
	for c := 0; c < 64; c++ {
		comp := fmt.Sprintf("Comp-%02d", c)
		in.Placement[comp] = in.Nodes[c%2]
		in.Load[comp] = float64(c%7+1) * 1e5
	}
	return in
}

// BenchmarkPlacementPlanLive measures one planning round over a skewed
// cluster — the work each placer tick does on the converged view.
func BenchmarkPlacementPlanLive(b *testing.B) {
	in := benchLiveInput()
	// MinGain is lowered so the fine-grained 64-component input plans real
	// moves instead of tripping the churn damping — the point here is the
	// planning cost, not the hysteresis.
	planner := deploy.Rebalance{MaxMoves: 4, MinGain: 0.01}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if moves := planner.PlanLive(in); len(moves) == 0 {
			b.Fatal("skewed input planned no moves")
		}
	}
}

// BenchmarkPlacementFromSnapshots measures assembling the planner input from
// per-node telemetry snapshots, admission section included.
func BenchmarkPlacementFromSnapshots(b *testing.B) {
	snaps := make([]telemetry.Snapshot, 8)
	for n := range snaps {
		snaps[n].Node = fmt.Sprintf("node-%d", n)
		snaps[n].TakenNanos = int64(n)
		for c := 0; c < 8; c++ {
			snaps[n].Admission = append(snaps[n].Admission, telemetry.AdmissionState{
				Component: fmt.Sprintf("Comp-%d-%d", n, c), EstimateNanos: float64(c) * 1e5,
			})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := deploy.FromSnapshots(snaps)
		if len(in.Nodes) != 8 {
			b.Fatalf("nodes = %v", in.Nodes)
		}
	}
}

const benchElasticADL = `
system Elastic {
  component Store {
    provide get(key) -> (value)
  }
}
`

// elasticKV is a capturable component with a fixed-size state payload.
type elasticKV struct {
	mu    sync.Mutex
	n     int64
	state []byte
}

func (s *elasticKV) Handle(op string, args []any) ([]any, error) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	return []any{args[0]}, nil
}

func (s *elasticKV) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == nil {
		s.state = make([]byte, 1024)
	}
	copy(s.state, strconv.FormatInt(s.n, 10))
	return s.state, nil
}

func (s *elasticKV) Restore(b []byte) error { return nil }

// BenchmarkReplicateShipAck measures the full warm-standby cycle over a real
// loopback link: snapshot the component, ship the frame to the follower,
// follower installs the standby and acks, origin observes the ack.
func BenchmarkReplicateShipAck(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := aas.StartCluster(ctx, aas.ClusterSpec{
		ADL:       benchElasticADL,
		Nodes:     []string{"n1", "n2"},
		Placement: map[string]string{"Store": "n1"},
		Registry: func(string) *registry.Registry {
			reg := aas.NewRegistry()
			reg.MustRegister("Store", "1.0", nil, func() any { return &elasticKV{} })
			return reg.Registry
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	rep := h.Node("n1").StartReplicator(aas.ReplicatorOptions{Interval: time.Hour})
	defer rep.Stop()

	acked := func() uint64 {
		snap := h.Node("n1").Telemetry()
		if len(snap.Replication) == 1 {
			return snap.Replication[0].AckedSeq
		}
		return 0
	}
	// Warm up: ReplicateNow ships nothing ("no eligible follower") until
	// gossip has shown n2 to n1's replicator, so ship once and wait for its
	// ack before timing.
	deadline := time.Now().Add(10 * time.Second)
	for rep.ReplicateNow() != 1 {
		if time.Now().After(deadline) {
			b.Fatal("no eligible follower within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	for acked() < 1 {
		if time.Now().After(deadline) {
			b.Fatal("warm-up snapshot not acked within 10s")
		}
		time.Sleep(50 * time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if shipped := rep.ReplicateNow(); shipped != 1 {
			b.Fatalf("shipped %d, want 1", shipped)
		}
		want := uint64(i + 2) // the warm-up ship acked sequence 1
		for acked() < want {
			time.Sleep(50 * time.Microsecond)
		}
	}
}
