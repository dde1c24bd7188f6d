package join

import (
	"fmt"
	"math/rand"
	"testing"

	"spear/internal/checkpoint/checkpointtest"
)

// TestRoundTripJoiner is the joiner's checkpoint round trip: drive two
// streams with evictions, exact and universe-sampled, snapshot
// mid-stream, restore the blob into a fresh joiner from the same config,
// and require the two to hold the same state (checkpointtest.StateDiff).
// The eviction queue is compared from its live entry on: the evicted
// prefix is not in the blob.
func TestRoundTripJoiner(t *testing.T) {
	live, restored := map[string]*Joiner{}, map[string]*Joiner{}
	for _, rate := range []float64{1, 0.5} {
		name := fmt.Sprint("rate=", rate)
		mk := func() *Joiner {
			j, _ := mkJoiner(t, 30, rate, 3)
			return j
		}
		j := mk()
		rng := rand.New(rand.NewSource(5))
		for i := int64(0); i < 600; i++ {
			j.OnTuple(Side(rng.Intn(2)), kt(i, fmt.Sprint("k", rng.Intn(12))))
			if i%40 == 39 {
				j.OnWatermark(i - 10)
			}
		}
		blob, err := j.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		r := mk()
		if err := r.RestoreState(blob); err != nil {
			t.Fatal(err)
		}
		live[name], restored[name] = j, r
	}
	for _, d := range checkpointtest.StateDiff(live, restored, map[string]string{
		"sides.order":  "holds the evicted prefix too: compared from the live entry on, below",
		"sides.oldest": "where the live entries start in order: 0 after a restore",
	}) {
		t.Error(d)
	}
	queues := func(js map[string]*Joiner) map[string][2][]keyedTs {
		out := map[string][2][]keyedTs{}
		for name, j := range js {
			out[name] = [2][]keyedTs{j.sides[Left].order[j.sides[Left].oldest:], j.sides[Right].order[j.sides[Right].oldest:]}
		}
		return out
	}
	for _, d := range checkpointtest.StateDiff(queues(live), queues(restored), nil) {
		t.Error(d)
	}
}
