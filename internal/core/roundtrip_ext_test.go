package core_test

import (
	"testing"

	"spear/internal/checkpoint/checkpointtest"
	"spear/internal/core"
)

func TestRoundTripScalarManager(t *testing.T) {
	core.RoundTripScalarManager(t, checkpointtest.StateDiff)
}

func TestRoundTripGroupedManager(t *testing.T) {
	core.RoundTripGroupedManager(t, checkpointtest.StateDiff)
}

func TestRoundTripExactManager(t *testing.T) {
	core.RoundTripExactManager(t, checkpointtest.StateDiff)
}

func TestRoundTripIncrementalManager(t *testing.T) {
	core.RoundTripIncrementalManager(t, checkpointtest.StateDiff)
}
