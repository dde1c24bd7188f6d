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

// TestHopBoundsTuplesInFlight pins the queue rule in tuples: capacity
// times the longest run a channel can carry. Every channel a source
// process owns — a local run's shard inputs, a network fabric's
// outboxes — holds max(2, 1024/BatchSize) runs of at most BatchSize, so
// about 1 K tuples wait on a hop. A batch frame carries up to the runs
// an outbox holds, so a shard node, which derives its sizes from the
// BatchSize its Hello carries, decodes into runs that long without
// allocating and holds two of them: at most twice a local channel. A
// result fan-in holds max(2, 1024/BatchSize) result batches everywhere.
func TestHopBoundsTuplesInFlight(t *testing.T) {
	leakcheck.Check(t, leakcheck.Timeout(10*time.Second))
	const par = 3
	factory := func(int) (core.Manager, error) { return idleManager{}, nil }
	in := []tuple.Tuple{tuple.New(1, tuple.Float(1)), tuple.New(2, tuple.Float(2))}
	for _, batch := range []int{1, 8, 64, 4096} {
		want := max(2, 1024/batch) // runs a local channel holds, result batches a fan-in holds
		hop := max(1024, 2*batch)  // the tuples they come to: an outbox, and the longest frame
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
				if held := e.Capacity * batch; held != hop {
					t.Errorf("BatchSize %d, %s: edge %s holds %d runs of %d, %d tuples, want %d", batch, where, e.Name, e.Capacity, batch, held, hop)
				}
			}
			if s.Sink == nil || s.Sink.Capacity != want {
				t.Errorf("BatchSize %d, %s: result fan-in %+v, want capacity %d", batch, where, s.Sink, want)
			}
		}
		shardHolds := func(where string, sr *spe.ShardRun) {
			run, _ := sr.NewRun()
			if longest := cap(run); longest != hop {
				t.Errorf("BatchSize %d, %s: pooled runs have room for %d tuples, want %d (the runs an outbox holds)", batch, where, longest, hop)
			}
			for i, c := range sr.In {
				if held := cap(c) * cap(run); held != 2*hop {
					t.Errorf("BatchSize %d, %s: input %d holds %d runs of %d, %d tuples, want %d", batch, where, i, cap(c), cap(run), held, 2*hop)
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
					Name: "w", Lo: js.Lo, Hi: js.Hi,
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
		sr, err := spe.StartShard(spe.Shard{Lo: 0, Hi: 1, BatchSize: batch, Factory: factory})
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
