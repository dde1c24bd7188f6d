package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Serve serves ins over HTTP on lis until stop is called. Routes:
//
//	/metrics  Prometheus text exposition format (version 0.0.4)
//	/snapshot the full JSON Snapshot
//	/trace    the sampled tuple-lifecycle ring as JSON, oldest first
//	/healthz  liveness probe, "ok"
//
// Scrapes never touch engine locks: /metrics and /snapshot fold a fresh
// snapshot from atomics and channel-length probes, so the server keeps
// answering even when the pipeline is fully back-pressured. The caller
// binds lis (its address is known before any run starts) and owns the
// server's lifetime, which may span several runs. stop closes the
// listener and returns once the serve goroutine has exited.
func Serve(lis net.Listener, ins *Instruments) (stop func()) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, ins.Snapshot(time.Now()))
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, ins.Snapshot(time.Now()))
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		tr := ins.Trace()
		if tr == nil {
			http.Error(w, `{"error":"tracing disabled"}`, http.StatusNotFound)
			return
		}
		writeJSON(w, struct {
			Recorded uint64       `json:"recorded"`
			Events   []TraceEvent `json:"events"`
		}{Recorded: tr.Recorded(), Events: tr.Events()})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Serve returns http.ErrServerClosed after stop; any other error
		// means the listener died, which stop tolerates.
		_ = srv.Serve(lis)
	}()
	return func() {
		// Close rather than Shutdown: scrapes are cheap GETs, and a stop
		// at stream end must not hang behind a stalled client.
		_ = srv.Close()
		<-done
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
