// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` never depends on it, and so that a
// layer probe which stops compiling cannot break the program's build.
// The module path sits under `spear/` on purpose: that is what lets the
// probes import `spear/internal/...`.
module spear/benchmark

go 1.22

require spear v0.0.0

replace spear => ../
