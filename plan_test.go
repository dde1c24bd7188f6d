package spear

import (
	"reflect"
	"testing"
)

// TestPlanFields walks the compiled plan. Its worker part is what the
// handshake hashes, with %#v: a func, pointer, interface, map, chan or
// slice there would print as an address or not at all, so two processes
// built from one definition would disagree, or two built from different
// ones agree. So the worker part holds plain values only. Every other
// field is exempt from the hash, and must say why a source and its
// shards may differ in it.
func TestPlanFields(t *testing.T) {
	const sourceOnly = "only the source reads it"
	exempt := map[string]string{
		"fns":          "function values cannot be hashed: building source and shards from the same code is the caller's job (Distribute's doc)",
		"columnar":     "a lane, not a semantics: a shard built without Columnar ingests rows and agrees bit for bit",
		"source":       sourceOnly + ": a shard has no spout",
		"maps":         sourceOnly + ": Map stages run at the source, ahead of the wire",
		"par":          "the JobSpec carries the source's (Lo, Hi, Par)",
		"batchSize":    "the JobSpec carries the source's",
		"wmPeriod":     sourceOnly + ": watermarks are cut at the source and cross the wire",
		"wmLag":        sourceOnly + ": watermarks are cut at the source and cross the wire",
		"store":        "each process's own handle to S; a checkpointed run needs one every process shares",
		"spillWorkers": "the async plane changes when bytes move, never what they say",
		"spillAhead":   "prefetch changes when bytes move, never what they say",
		"ckptTuples":   sourceOnly + ": the coordinator cuts barriers; the JobSpec says whether to expect them",
		"ckptInterval": sourceOnly + ": the coordinator cuts barriers; the JobSpec says whether to expect them",
		"ckptRecover":  sourceOnly + ": the JobSpec names the manifest shards restore from",
		"control":      "the controller runs only in Run's process: LatencySLO does not compose with Distribute",
		"obsInto":      "telemetry is each process's own",
		"nodes":        sourceOnly + ": the shard addresses",
		"dialer":       sourceOnly + ": a transport test seam",
		"redials":      sourceOnly + ": reconnect policy",
		"backoff":      sourceOnly + ": reconnect policy",
		"peerWait":     "a shard's own patience with a lost source",
	}
	typ := reflect.TypeOf(plan{})
	hashed, ok := typ.FieldByName("worker")
	if !ok {
		t.Fatal("plan has no worker part")
	}
	var plain func(path string, ft reflect.Type)
	plain = func(path string, ft reflect.Type) {
		switch ft.Kind() {
		case reflect.Func, reflect.Pointer, reflect.Interface, reflect.Map, reflect.Chan, reflect.Slice, reflect.UnsafePointer:
			t.Errorf("hashed field %s is a %s: %%#v does not print its value", path, ft.Kind())
		case reflect.Array:
			plain(path+"[]", ft.Elem())
		case reflect.Struct:
			for i := 0; i < ft.NumField(); i++ {
				plain(path+"."+ft.Field(i).Name, ft.Field(i).Type)
			}
		}
	}
	plain("worker", hashed.Type)

	used := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == hashed.Name {
			continue
		}
		if _, ok := exempt[f.Name]; !ok {
			t.Errorf("plan.%s is neither hashed nor exempt: move it into workerPlan, or exempt it with the reason a shard may differ", f.Name)
		}
		used[f.Name] = true
	}
	for _, p := range allowProblems("exempt", exempt, used) {
		t.Error(p)
	}
}

// TestTopoHashCoversTheWorkerPart changes one worker field at a time and
// requires the hash to move: a field %#v printed but the digest missed
// would let diverged definitions pair.
func TestTopoHashCoversTheWorkerPart(t *testing.T) {
	base, err := NewQuery("h").TumblingWindow(10).Mean(func(Tuple) float64 { return 0 }).compile()
	if err != nil {
		t.Fatal(err)
	}
	var bump func(f reflect.Value) bool
	bump = func(f reflect.Value) bool {
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint8:
			f.SetUint(f.Uint() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() / 2)
		case reflect.Struct: // window.Spec, agg.Func: move the first field
			return bump(f.Field(0))
		default:
			return false
		}
		return true
	}
	fields := reflect.TypeOf(base.worker)
	for i := 0; i < fields.NumField(); i++ {
		p := base
		if !bump(reflect.ValueOf(&p.worker).Elem().Field(i)) {
			t.Fatalf("worker.%s: no way to change a %s", fields.Field(i).Name, fields.Field(i).Type)
		}
		if p.topoHash() == base.topoHash() {
			t.Errorf("changing worker.%s leaves topoHash unchanged", fields.Field(i).Name)
		}
	}
}
