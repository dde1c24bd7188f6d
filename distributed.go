package spear

import (
	"errors"
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
	"spear/internal/storage"
	"spear/internal/transport"
)

// Distribute runs the windowed stage on remote shard nodes instead of
// local goroutines: the parallelism is split contiguously across the
// given addresses, each hosting a ServeShard process built from the
// same query definition (the handshake verifies this structurally).
// Data batches, watermarks, and checkpoint barriers cross the wire in
// source order — every worker has the source as its one sender in both
// runtimes — so results, values and production mode, are bit-identical
// per worker to a single-process run with the same seed, and barrier
// checkpoints plus source replay work unchanged. Map stages run at the
// source, ahead of the wire.
// Checkpointed distributed runs need a SpillStore every process shares
// (e.g. a FileStore on a common directory). The window workers, and
// with them the per-worker telemetry, live in the shard processes: the
// Summary this process's Run returns is empty.
func (q *Query) Distribute(addrs ...string) *Query {
	if len(addrs) == 0 {
		return q.errf("Distribute needs at least one node address")
	}
	q.workers = append([]string(nil), addrs...)
	return q
}

// ServeShard runs this process as one shard node of a distributed
// query: it serves the windowed workers the source's handshake assigns
// to it and returns when the run completes or fails. The query must be
// built from the same definition as the source's (the same code,
// typically — the handshake rejects structural mismatches); Source and
// parallelism are the source process's concern and are ignored here.
// The shard's telemetry is not sent to the source: give the query
// ObserveWith(ins) and read ins.Summarize() or ins.Snapshot here.
func (q *Query) ServeShard(lis net.Listener) error {
	if len(q.errs) > 0 {
		return errors.Join(q.errs...)
	}
	if !q.haveSpec {
		return fmt.Errorf("spear: %s: no window", q.name)
	}
	if !q.haveAgg {
		return fmt.Errorf("spear: %s: no aggregate", q.name)
	}
	store, plane, reg, err := q.assembleRuntime()
	if err != nil {
		return err
	}

	ins := q.obsInto
	var tobs *obs.TransportObs
	if ins != nil {
		ins.SetSpillPlane(plane)
		tobs = ins.RegisterTransport("source")
	}

	ns := q.name + "/ckpt"
	srv := transport.NewServer(lis, transport.ServerConfig{
		TopoHash: q.topoHash(),
		PeerWait: q.transportPeerWait,
		Obs:      tobs,
		Start: func(spec transport.JobSpec, ack func(transport.SnapAck) error) (*spe.ShardRun, error) {
			var hooks *spe.CheckpointHooks
			if spec.Checkpoint {
				// The worker protocol a local worker runs, confirming over
				// the wire, from the manifest the source recovered to.
				var restore *checkpoint.Manifest
				if spec.RestoreID != 0 {
					m, err := checkpoint.LoadManifest(store, ns, spec.RestoreID)
					if err != nil {
						return nil, err
					}
					restore = &m
				}
				hooks = checkpoint.WorkerHooks(store, ns, restore, reg.Checkpoint(),
					func(id uint64, op checkpoint.Operator, deferred []string) error {
						return ack(transport.SnapAck{
							ID: id, Worker: op.Worker, Key: op.Key,
							Size: op.Size, Sum: op.Sum, Deferred: deferred,
						})
					})
			}
			return spe.StartShard(spe.Shard{
				Name: q.name, Lo: spec.Lo, Hi: spec.Hi, Senders: spec.Senders,
				BatchSize: spec.BatchSize, QueueSize: spec.QueueSize,
				// Both sides build the same query, so the shard ingests
				// on the lane the source's local workers would.
				Columnar: q.colOn,
				Factory:  q.managerFactory(plane, reg, spec.Checkpoint),
				Hooks:    hooks, Obs: ins,
			})
		},
	})
	err = srv.Serve()
	if cerr := plane.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("spear: %s: spill plane: %w", q.name, cerr)
	}
	return err
}

// assembleRuntime builds the pieces Run and ServeShard share: the raw
// spill store, the spill I/O plane the managers talk to (the user's
// store behind the async write-behind/prefetch plane — a transparent
// synchronous passthrough when SpillWorkers is 0), and the telemetry
// registry — the caller's ObserveWith instruments, else a private one. The
// checkpoint machinery deliberately keeps the raw store: manifest and
// blob writes are commit points and must stay synchronous, while
// spilled-state durability is enforced by the plane's barrier inside
// each snapshot.
func (q *Query) assembleRuntime() (storage.SpillStore, *spill.Plane, *obs.Instruments, error) {
	if q.spillAhead > 0 && q.spillWorkers == 0 {
		return nil, nil, nil, fmt.Errorf("spear: %s: SpillAhead(%d) needs SpillWorkers > 0: prefetched panes live in the async plane's cache", q.name, q.spillAhead)
	}
	if q.budgetTuples == 0 {
		// A sensible default: enough for a 10%/95% quantile per the
		// Hoeffding bound, with headroom.
		q.budgetTuples = 1000
	}
	store := q.store
	if store == nil {
		store = storage.NewMemStore()
	}
	plane := spill.NewPlane(store, spill.Options{Workers: q.spillWorkers})
	reg := q.obsInto
	if reg == nil {
		reg = obs.NewInstruments()
	}
	return store, plane, reg, nil
}

// managerFactory returns the stateful-manager factory both runtimes
// use. Worker indices are always global, so per-worker seeds, store
// keys, and telemetry names agree across processes.
func (q *Query) managerFactory(plane *spill.Plane, reg *obs.Instruments, deferDeletes bool) spe.ManagerFactory {
	return func(wi int) (core.Manager, error) {
		var cell *control.Cell
		if wi < len(q.controlCells) {
			cell = q.controlCells[wi]
		}
		cfg := core.Config{
			Spec:               q.spec,
			Agg:                q.aggFunc,
			Custom:             q.custom,
			Value:              q.value,
			KeyBy:              q.keyBy,
			Epsilon:            q.epsilon,
			Confidence:         q.confidence,
			BudgetTuples:       q.budgetTuples,
			KnownGroups:        q.knownGroups,
			Store:              plane,
			Key:                fmt.Sprintf("%s/%s/%d", q.name, q.backend, wi),
			SpillAhead:         q.spillAhead,
			Seed:               sample.DeriveSeed(q.seed, int64(wi)),
			DisableIncremental: q.disableIncremental,
			ScalarEstimator:    q.scalarEst,
			GroupedEstimator:   q.groupedEst,
			Metrics:            reg.Worker(fmt.Sprintf("%s[%d]", q.name, wi)),
			Budget:             q.budgetPolicy,
			Cell:               cell,
			// The spec only authorizes the columnar kernels; it never
			// changes results, so it stays out of topoHash: a shard
			// built without Columnar ingests rows and agrees bit for
			// bit with a source that has it.
			Columnar: core.ColumnarSpec{
				Enabled:    q.colOn,
				ValueField: q.colValueField,
				KeyField:   q.colKeyField,
			},
			DeferStoreDeletes: deferDeletes,
		}
		switch q.backend {
		case BackendExact:
			return core.NewExactManager(cfg)
		case BackendIncremental:
			return core.NewIncrementalManager(cfg)
		default:
			if q.keyBy != nil {
				return core.NewGroupedManager(cfg)
			}
			return core.NewScalarManager(cfg)
		}
	}
}

// topoHash digests the query parameters that determine results, so a
// source and a shard built from diverged definitions refuse to pair
// instead of silently computing different answers.
func (q *Query) topoHash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d|%d|%d|%d",
		q.name, q.backend, q.spec.Domain, q.spec.Range, q.spec.Slide,
		q.parallelism, len(q.maps))
	fmt.Fprintf(h, "|%d|%g|%g|%g|%d|%d|%d|%t|%t",
		q.aggFunc.Op, q.aggFunc.P, q.epsilon, q.confidence,
		q.budgetTuples, q.knownGroups, q.seed,
		q.keyBy != nil, q.disableIncremental)
	custom, budgetMin, budgetMax := "", 0, 0
	if q.custom != nil {
		custom = q.custom.Name
	}
	if aimd, ok := q.budgetPolicy.(*core.AIMDBudget); ok {
		budgetMin, budgetMax = aimd.Min, aimd.Max
	}
	fmt.Fprintf(h, "|%s|%d|%d|%d", custom, q.batchSize, budgetMin, budgetMax)
	return h.Sum64()
}

// newFabric wires the source side of the shuffle: node addresses, the
// structural hash, a fresh run identity, and — when checkpointing —
// the coordinator's confirm path and the manifest shards restore from.
func (q *Query) newFabric(coord *checkpoint.Coordinator, ins *obs.Instruments) *transport.Fabric {
	if q.runID == 0 {
		q.runID = uint64(time.Now().UnixNano())
	}
	cfg := transport.FabricConfig{
		Nodes:       q.workers,
		TopoHash:    q.topoHash(),
		RunID:       q.runID,
		BatchSize:   q.batchSize,
		Dialer:      q.transportDialer,
		MaxRedials:  q.transportRedials,
		BackoffBase: q.transportBackoff,
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
