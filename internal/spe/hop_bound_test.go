package spe_test

import (
	"net"
	"testing"
	"time"

	"spear/internal/core"
	"spear/internal/leakcheck"
	"spear/internal/obs"
	"spear/internal/spe"
	"spear/internal/transport"
	"spear/internal/tuple"
)

// idleManager keeps nothing: the runs below exist to size channels.
type idleManager struct{}

func (idleManager) OnTupleBatch([]tuple.Tuple) ([]core.Result, error) { return nil, nil }
func (idleManager) OnWatermark(int64) ([]core.Result, error)          { return nil, nil }

// TestHopBoundsTuplesInFlight pins the one queue rule: whatever the run
// length, every channel the engine owns holds max(2, 1024/BatchSize)
// batches, so about 1 K tuples wait on a hop. That covers a local run's
// shard inputs and result fan-in, a network fabric's outboxes and result
// channel, and the inputs and results of a shard node, which derives
// the same bound from the BatchSize its Hello carries, or of a shard
// started on its own.
func TestHopBoundsTuplesInFlight(t *testing.T) {
	leakcheck.Check(t, leakcheck.Timeout(10*time.Second))
	const par = 3
	factory := func(int) (core.Manager, error) { return idleManager{}, nil }
	in := []tuple.Tuple{tuple.New(1, tuple.Float(1)), tuple.New(2, tuple.Float(2))}
	for _, batch := range []int{1, 8, 64, 4096} {
		want := max(2, 1024/batch)
		topology := func(ins *obs.Instruments) *spe.Topology {
			return spe.NewTopology(spe.Config{BatchSize: batch, Obs: ins}).
				SetSpout(spe.NewSliceSpout(in)).
				SetWindowed("w", par, nil, factory).
				SetSink(func(int, core.Result) {})
		}
		probed := func(where string, ins *obs.Instruments) {
			s := ins.Snapshot(time.Now())
			if len(s.Edges) != par {
				t.Fatalf("BatchSize %d, %s: %d edges registered, want %d", batch, where, len(s.Edges), par)
			}
			for _, e := range s.Edges {
				if e.Capacity != want {
					t.Errorf("BatchSize %d, %s: edge %s holds %d batches, want %d", batch, where, e.Name, e.Capacity, want)
				}
			}
			if s.Sink == nil || s.Sink.Capacity != want {
				t.Errorf("BatchSize %d, %s: result fan-in %+v, want capacity %d", batch, where, s.Sink, want)
			}
		}
		shardHolds := func(where string, sr *spe.ShardRun) {
			for i, c := range sr.In {
				if cap(c) != want {
					t.Errorf("BatchSize %d, %s: input %d holds %d batches, want %d", batch, where, i, cap(c), want)
				}
			}
			if cap(sr.Results) != want {
				t.Errorf("BatchSize %d, %s: results hold %d, want %d", batch, where, cap(sr.Results), want)
			}
		}

		local := obs.NewInstruments()
		if err := topology(local).Run(); err != nil {
			t.Fatal(err)
		}
		probed("local shard", local)

		// One shard node over loopback, started from the Hello's spec.
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		shards := make(chan *spe.ShardRun, 1)
		srv := transport.NewServer(lis, transport.ServerConfig{TopoHash: 1,
			Start: func(js transport.JobSpec, _ func(transport.SnapAck) error) (*spe.ShardRun, error) {
				sr, err := spe.StartShard(spe.Shard{
					Name: "w", Lo: js.Lo, Hi: js.Hi, Senders: js.Senders,
					BatchSize: js.BatchSize, Factory: factory,
				})
				shards <- sr
				return sr, err
			}})
		served := make(chan error, 1)
		go func() { served <- srv.Serve() }()
		source := obs.NewInstruments()
		fab := transport.NewFabric(transport.FabricConfig{
			Nodes: []string{lis.Addr().String()}, TopoHash: 1, RunID: 1,
			BatchSize: batch, Obs: source,
		})
		if err := topology(source).SetFabric(fab).Run(); err != nil {
			t.Fatal(err)
		}
		if err := <-served; err != nil {
			t.Fatal(err)
		}
		probed("network fabric", source)
		shardHolds("shard node", <-shards)

		// A shard started on its own applies the same rule.
		sr, err := spe.StartShard(spe.Shard{Lo: 0, Hi: 1, Senders: 1, BatchSize: batch, Factory: factory})
		if err != nil {
			t.Fatal(err)
		}
		close(sr.In[0])
		if err := sr.Wait(); err != nil {
			t.Fatal(err)
		}
		shardHolds("StartShard", sr)
	}
}
