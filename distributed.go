package spear

import (
	"fmt"
	"hash/fnv"
	"net"
	"time"

	"spear/internal/checkpoint"
	"spear/internal/control"
	"spear/internal/core"
	"spear/internal/obs"
	"spear/internal/sample"
	"spear/internal/spe"
	"spear/internal/spill"
	"spear/internal/transport"
)

// Distribute runs the windowed stage on remote shard nodes instead of
// local goroutines: the parallelism is split contiguously across the
// given addresses, each hosting a ServeShard process built from the
// same query definition. Data batches, watermarks, and checkpoint
// barriers cross the wire in source order — every worker has the source
// as its one sender in both runtimes — so results, values and
// production mode, are bit-identical per worker to a single-process run
// with the same seed, and barrier checkpoints plus source replay work
// unchanged. Map stages run at the source, ahead of the wire.
//
// The handshake refuses a shard whose query differs from the source's in
// a setting a worker is built from: name, backend, window, aggregate
// (CustomAgg by its name), ε and α, budget and AdaptiveBudget bounds,
// KnownGroups, seed, grouping and DisableIncremental. What the source
// sends with every run (parallelism, batch size) and what only the
// source reads (Map stages, watermark cadence, checkpoint cadence) may
// differ. Function values — the value and key extractors, a custom
// aggregate's function and the estimators — cannot be compared across
// processes: building both sides from the same code is the caller's job.
//
// Checkpointed distributed runs need a SpillStore every process shares
// (the repository's tests use storage.FileStore on a common directory).
// The window workers, and with them the per-worker telemetry, live in
// the shard processes: the Summary this process's Run returns is empty.
func (q *Query) Distribute(addrs ...string) *Query {
	if len(addrs) == 0 {
		return q.errf("Distribute needs at least one node address")
	}
	q.p.nodes = append([]string(nil), addrs...)
	return q
}

// ServeShard runs this process as one shard node of a distributed
// query: it serves the windowed workers the source's handshake assigns
// to it and returns when the run completes or fails. The query must be
// built from the same definition as the source's: the handshake refuses
// one that differs in a setting its workers are built from, and matching
// the function values is the caller's job (see Distribute). Source,
// Map stages, parallelism, batch size and watermark cadence are the
// source process's concern and are ignored here.
// The shard's telemetry is not sent to the source: give the query
// ObserveWith(ins) and read ins.Summarize() or ins.Snapshot here.
func (q *Query) ServeShard(lis net.Listener) error {
	p, err := q.compile()
	if err != nil {
		return err
	}
	plane, reg := p.runtime()
	ins := p.obsInto
	var tobs *obs.TransportObs
	if ins != nil {
		ins.SetSpillPlane(plane)
		tobs = ins.RegisterTransport("source")
	}

	ns := p.worker.Name + "/ckpt"
	srv := transport.NewServer(lis, transport.ServerConfig{
		TopoHash: p.topoHash(),
		PeerWait: p.peerWait,
		Obs:      tobs,
		Start: func(spec transport.JobSpec, ack func(transport.SnapAck) error) (*spe.ShardRun, error) {
			var hooks *spe.CheckpointHooks
			if spec.Checkpoint {
				// The worker protocol a local worker runs, confirming over
				// the wire, from the manifest the source recovered to.
				var restore *checkpoint.Manifest
				if spec.RestoreID != 0 {
					m, err := checkpoint.LoadManifest(p.store, ns, spec.RestoreID)
					if err != nil {
						return nil, err
					}
					restore = &m
				}
				hooks = checkpoint.WorkerHooks(p.store, ns, restore, reg.Checkpoint(),
					func(id uint64, op checkpoint.Operator, deferred []string) error {
						return ack(transport.SnapAck{
							ID: id, Worker: op.Worker, Key: op.Key,
							Size: op.Size, Sum: op.Sum, Deferred: deferred,
						})
					})
			}
			return spe.StartShard(spe.Shard{
				Name: p.worker.Name, Lo: spec.Lo, Hi: spec.Hi,
				BatchSize: spec.BatchSize, Columnar: p.columnar.Enabled,
				Factory: p.managerFactory(plane, reg, spec.Checkpoint, nil),
				Hooks:   hooks, Obs: ins,
			})
		},
	})
	err = srv.Serve()
	if cerr := plane.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("spear: %s: spill plane: %w", p.worker.Name, cerr)
	}
	return err
}

// runtime builds the pieces Run and ServeShard share: the spill I/O
// plane the managers talk to (the store behind the async write-behind
// plane and its read cache — a transparent synchronous passthrough
// when SpillWorkers is 0), and the telemetry registry — the caller's
// ObserveWith instruments, else a private one. The checkpoint machinery
// deliberately keeps the raw store: manifest and blob writes are commit
// points and must stay synchronous, while spilled-state durability is
// enforced by the plane's barrier inside each snapshot.
func (p *plan) runtime() (*spill.Plane, *obs.Instruments) {
	reg := p.obsInto
	if reg == nil {
		reg = obs.NewInstruments()
	}
	return spill.NewPlane(p.store, spill.Options{Workers: p.spillWorkers}), reg
}

// managerFactory returns the stateful-manager factory both runtimes
// use, built from the worker part of the plan, its function values, and
// cells, the controller's mailboxes (nil without LatencySLO). Worker
// indices are always global, so per-worker seeds, store keys, and
// telemetry names agree across processes.
func (p *plan) managerFactory(plane *spill.Plane, reg *obs.Instruments, deferDeletes bool, cells []*control.Cell) spe.ManagerFactory {
	w, f := p.worker, p.fns
	return func(wi int) (core.Manager, error) {
		cfg := core.Config{
			Spec:               w.Spec,
			Agg:                w.Agg,
			Custom:             f.custom,
			Value:              f.value,
			KeyBy:              f.keyBy,
			Epsilon:            w.Epsilon,
			Confidence:         w.Confidence,
			BudgetTuples:       w.Budget,
			BudgetMin:          w.BudgetMin,
			BudgetMax:          w.BudgetMax,
			KnownGroups:        w.KnownGroups,
			Store:              plane,
			Key:                fmt.Sprintf("%s/%s/%d", w.Name, w.Backend, wi),
			Seed:               sample.DeriveSeed(w.Seed, int64(wi)),
			DisableIncremental: w.DisableIncremental,
			ScalarEstimator:    f.scalarEst,
			GroupedEstimator:   f.groupedEst,
			Metrics:            reg.Worker(fmt.Sprintf("%s[%d]", w.Name, wi)),
			Columnar:           p.columnar,
			DeferStoreDeletes:  deferDeletes,
		}
		if wi < len(cells) {
			cfg.Cell = cells[wi]
		}
		switch w.Backend {
		case BackendExact:
			return core.NewExactManager(cfg)
		case BackendIncremental:
			return core.NewIncrementalManager(cfg)
		default:
			if w.Grouped {
				return core.NewGroupedManager(cfg)
			}
			return core.NewScalarManager(cfg)
		}
	}
}

// topoHash digests the worker part of the plan whole, so a source and a
// shard built from diverged definitions refuse to pair instead of
// silently computing different answers. There is no list of fields to
// keep: a field added to workerPlan is hashed.
func (p *plan) topoHash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", p.worker)
	return h.Sum64()
}

// newFabric wires the source side of the shuffle: node addresses, the
// structural hash, a fresh run identity, and — when checkpointing —
// the coordinator's confirm path and the manifest shards restore from.
func (p *plan) newFabric(coord *checkpoint.Coordinator, ins *obs.Instruments) *transport.Fabric {
	cfg := transport.FabricConfig{
		Nodes:       p.nodes,
		TopoHash:    p.topoHash(),
		RunID:       uint64(time.Now().UnixNano()),
		BatchSize:   p.batchSize,
		Dialer:      p.dialer,
		MaxRedials:  p.redials,
		BackoffBase: p.backoff,
		Obs:         ins,
	}
	if coord != nil {
		cfg.Checkpoint = true
		if m, ok := coord.Restored(); ok {
			cfg.RestoreID = m.ID
		}
		cfg.Confirm = func(a transport.SnapAck) error {
			return coord.Confirm(a.ID, checkpoint.Operator{
				Worker: a.Worker, Key: a.Key, Size: a.Size, Sum: a.Sum,
			}, a.Deferred)
		}
	}
	return transport.NewFabric(cfg)
}
