// Command spear-demo runs one of the paper's continuous queries and
// streams its window results to stdout, side by side with what the
// exact engine would have produced — a quick way to see the
// accelerate-or-fallback decisions and the realized errors live.
//
// Usage:
//
//	spear-demo -dataset dec -tuples 400000
//	spear-demo -dataset debs -budget 2000
//	spear-demo -dataset gcm -epsilon 0.05
//	spear-demo -serve :8080                  # live /metrics during the run
//	spear-demo -scrapecheck                  # self-scrape gate (CI)
//	spear-demo -nodes 2                      # multi-process: 2 shard nodes over loopback TCP
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"time"

	"spear"
	"spear/internal/bench"
	"spear/internal/dataset"
	"spear/internal/obs"
	"spear/internal/window"
)

func main() {
	var (
		dsName  = flag.String("dataset", "dec", "dec (median), gcm (grouped mean), or debs (grouped mean)")
		tuples  = flag.Int("tuples", 400_000, "stream length")
		budget  = flag.Int("budget", 0, "memory budget b in tuples (0 = the paper's setting)")
		epsilon = flag.Float64("epsilon", 0.10, "relative error bound ε")
		conf    = flag.Float64("confidence", 0.95, "confidence α")
		seed    = flag.Int64("seed", 1, "random seed")
		serve   = flag.String("serve", "", "serve live observability during the SPEAr run: Prometheus at /metrics, JSON at /snapshot, lifecycle samples at /trace (e.g. :8080)")
		trcEvr  = flag.Int("traceevery", 0, "record the lifecycle of every nth tuple into the /trace ring (0 = off)")
		scrape  = flag.Bool("scrapecheck", false, "self-scrape /metrics mid-run and exit non-zero unless every required metric family is served (CI gate; implies -serve :0)")
		spillW  = flag.Int("spillworkers", 0, "async spill plane workers (0 = synchronous spilling)")
		spillA  = flag.Int("spillahead", 0, "windows of watermark-driven spill prefetch (needs -spillworkers)")
		nodes   = flag.Int("nodes", 0, "multi-process demo: distribute the SPEAr windowed stage across n shard subprocesses over loopback TCP (0 = in-process)")
		par     = flag.Int("par", 0, "windowed-stage parallelism (0 = n when -nodes is set, else 1)")
		shard   = flag.Bool("shard", false, "internal: run as one shard node (listen on 127.0.0.1:0, print SPEARADDR, serve one run); spawned by -nodes")
	)
	flag.Parse()
	if *scrape && *serve == "" {
		*serve = "127.0.0.1:0"
	}
	if *par == 0 && *nodes > 0 {
		*par = *nodes
	}

	build := func(backend spear.Backend) (*spear.Query, *dataset.Stream) {
		var ds *dataset.Stream
		q := spear.NewQuery(*dsName).WithBackend(backend).Seed(*seed).Error(*epsilon, *conf).
			SpillWorkers(*spillW).SpillAhead(*spillA)
		switch *dsName {
		case "dec":
			ds = dataset.DEC(dataset.DECConfig{Tuples: *tuples, Seed: *seed})
			b := *budget
			if b == 0 {
				b = 200
			}
			q.Source(spear.FromFunc(ds.Next)).
				SlidingWindow(45*time.Second, 15*time.Second).
				Median(ds.Value).
				BudgetTuples(b)
		case "gcm":
			ds = dataset.GCM(dataset.GCMConfig{Tuples: *tuples, Seed: *seed})
			b := *budget
			if b == 0 {
				b = 4000
			}
			q.Source(spear.FromFunc(ds.Next)).
				SlidingWindow(time.Hour, 30*time.Minute).
				GroupBy(ds.Key).
				KnownGroups(dataset.SchedClasses).
				Mean(ds.Value).
				BudgetTuples(b)
		case "debs":
			ds = dataset.DEBS(dataset.DEBSConfig{Tuples: *tuples, Seed: *seed})
			b := *budget
			if b == 0 {
				b = 2000
			}
			q.Source(spear.FromFunc(ds.Next)).
				SlidingWindow(30*time.Minute, 15*time.Minute).
				GroupBy(ds.Key).
				Mean(ds.Value).
				BudgetTuples(b)
		default:
			fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *dsName)
			os.Exit(2)
		}
		if *par > 0 {
			q.Parallelism(*par)
		}
		return q, ds
	}

	// Shard mode: this process is one node of a distributed run. It
	// builds the same SPEAr query definition from the same flags (the
	// handshake's structural hash verifies that), announces its address
	// on stdout, and serves the workers the source assigns to it.
	if *shard {
		q, _ := build(spear.BackendSPEAr)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("SPEARADDR %s\n", lis.Addr())
		if err := q.ServeShard(lis); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// Exact reference first. With parallelism above one each worker
	// produces its own result per window slot, so the reference is
	// keyed per worker.
	type slot struct {
		worker int
		id     window.ID
	}
	exact := map[slot]spear.Result{}
	var mu sync.Mutex
	qe, _ := build(spear.BackendExact)
	exactSum, err := qe.Run(func(worker int, r spear.Result) {
		mu.Lock()
		exact[slot{worker, r.WindowID}] = r
		mu.Unlock()
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Then SPEAr, printing the comparison per window.
	type line struct {
		r   spear.Result
		err float64
	}
	var lines []line
	qs, _ := build(spear.BackendSPEAr)

	// Multi-process mode: re-exec this binary as -shard nodes, collect
	// the addresses they announce, and point the SPEAr run at them. The
	// exact reference above stays in-process — bit-identical results
	// across the two runtimes is exactly the property being demoed.
	var shards []*exec.Cmd
	if *nodes > 0 {
		addrs, procs, err := spawnShards(*nodes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		shards = procs
		qs.Distribute(addrs...)
		fmt.Fprintf(os.Stderr, "distributed: %d shard nodes (par %d): %s\n",
			*nodes, *par, strings.Join(addrs, " "))
	}
	killShards := func() {
		for _, p := range shards {
			_ = p.Process.Kill()
			_ = p.Wait()
		}
	}

	var (
		obsAddr    string
		scrapeOnce sync.Once
		scrapeErr  error
		scraped    bool
	)
	if *serve != "" {
		lis, err := net.Listen("tcp", *serve)
		if err != nil {
			killShards()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ins := spear.NewInstruments()
		if *trcEvr > 0 {
			ins.EnableTrace(*trcEvr, 0)
		}
		qs.ObserveWith(ins)
		defer spear.ServeObservability(lis, ins)()
		obsAddr = lis.Addr().String()
		fmt.Fprintf(os.Stderr, "observability: http://%s/metrics (also /snapshot, /trace, /healthz)\n", obsAddr)
	}
	spearSum, err := qs.Run(func(worker int, r spear.Result) {
		if *scrape {
			// Self-scrape on the first result: the pipeline is live, the
			// server is up, and telemetry is mid-flight — exactly what an
			// external Prometheus would see.
			scrapeOnce.Do(func() { scrapeErr, scraped = checkScrape(obsAddr), true })
		}
		mu.Lock()
		defer mu.Unlock()
		e, ok := exact[slot{worker, r.WindowID}]
		if !ok {
			return
		}
		lines = append(lines, line{r, bench.ResultError(r, e)})
	})
	if err != nil {
		killShards()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, p := range shards {
		if werr := p.Wait(); werr != nil {
			fmt.Fprintf(os.Stderr, "shard node: %v\n", werr)
			os.Exit(1)
		}
	}
	if *scrape {
		if !scraped {
			scrapeErr = fmt.Errorf("scrapecheck: the run produced no results, so no mid-run scrape happened")
		}
		if scrapeErr != nil {
			fmt.Fprintln(os.Stderr, scrapeErr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "scrapecheck: ok (%d required families served mid-run)\n", len(obs.Families()))
	}

	sort.Slice(lines, func(i, j int) bool { return lines[i].r.Start < lines[j].r.Start })
	fmt.Printf("%-22s %-12s %10s %10s %9s\n", "window", "mode", "sample", "N", "err%")
	for _, l := range lines {
		fmt.Printf("[%s, %s)  %-12s %10d %10d %8.2f%%\n",
			time.Unix(0, l.r.Start).Format("15:04:05"),
			time.Unix(0, l.r.End).Format("15:04:05"),
			l.r.Mode, l.r.SampleN, l.r.N, 100*l.err)
	}
	if *nodes > 0 {
		// Per-window worker telemetry lives in the shard processes; the
		// source-side summary would read all zeros.
		fmt.Printf("\nexact (in-process): mean proc %v | SPEAr: %d windows over %d shard nodes\n",
			exactSum.MeanProcTime, len(lines), *nodes)
		return
	}
	fmt.Printf("\nexact: mean proc %v | SPEAr: mean proc %v (%.1fx), %d/%d accelerated\n",
		exactSum.MeanProcTime, spearSum.MeanProcTime,
		float64(exactSum.MeanProcTime)/float64(spearSum.MeanProcTime),
		spearSum.Accelerated, spearSum.Windows)
}

// spawnShards re-execs this binary n times in -shard mode, forwarding
// every explicitly-set flag that shapes the workers (so the shards build
// the same query definition), and waits for each to announce its listen
// address with a "SPEARADDR <addr>" stdout line. Parallelism is not
// forwarded: the source sends it with every run. On any failure every
// already-started shard is killed.
func spawnShards(n int) (addrs []string, procs []*exec.Cmd, err error) {
	args := []string{"-shard"}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "nodes", "shard", "par", "serve", "scrapecheck", "traceevery":
			return // parent-only
		}
		args = append(args, "-"+f.Name+"="+f.Value.String())
	})
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	kill := func() {
		for _, p := range procs {
			_ = p.Process.Kill()
			_ = p.Wait()
		}
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, perr := cmd.StdoutPipe()
		if perr != nil {
			kill()
			return nil, nil, perr
		}
		if perr := cmd.Start(); perr != nil {
			kill()
			return nil, nil, perr
		}
		procs = append(procs, cmd)
		// A shard prints exactly one stdout line, so the pipe needs no
		// draining after the handshake.
		sc := bufio.NewScanner(out)
		addr := ""
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "SPEARADDR "); ok {
				addr = a
				break
			}
		}
		if addr == "" {
			kill()
			return nil, nil, fmt.Errorf("shard %d exited before announcing its address", i)
		}
		addrs = append(addrs, addr)
	}
	return addrs, procs, nil
}

// checkScrape GETs /metrics while the query runs and verifies the
// response is Prometheus text format declaring every family of obs.Families.
func checkScrape(addr string) error {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return fmt.Errorf("scrapecheck: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrapecheck: /metrics returned %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		return fmt.Errorf("scrapecheck: unexpected content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("scrapecheck: reading body: %w", err)
	}
	text := string(body)
	var missing []string
	for _, fam := range obs.Families() {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			missing = append(missing, fam)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("scrapecheck: /metrics is missing families: %s", strings.Join(missing, ", "))
	}
	return nil
}
