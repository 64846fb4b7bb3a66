// turbo-server serves a Turbo-cached DP database over HTTP: the trusted
// aggregate-only interface of the paper's motivating scenario. Analysts
// POST linear SQL to /query; /budget and /schema expose the public
// accounting and schema state; partitioned and streaming deployments
// ingest new time partitions through POST /append (batched arrivals,
// applied as ordered epochs with eager warm-start in streaming mode).
//
// Durable state: -state loads a snapshot at boot (when the file exists),
// before the listener opens, and writes one atomically (temp file +
// rename) on SIGINT/SIGTERM, so a restart forfeits neither spent budget
// nor cache warmth. A file this build cannot restore — one written by an
// older build's snapshot format included — stops the boot with a non-zero
// exit and is left as it was. GET /snapshot exposes the same envelope over HTTP,
// and POST /restore loads one into a server that has not yet served:
// the first analyst request closes that window (a later restore is 409),
// and a restore that fails midway leaves the server answering 503 until
// it is restarted. -append-backlog bounds the ingestion queue:
// overflowing appends shed with 503 + Retry-After instead of queueing
// without bound.
//
//	turbo-server -addr :8080 -dataset covid -mode streaming
//	curl -s localhost:8080/query -d '{"sql":"SELECT COUNT(*) FROM covid WHERE positive = 1"}'
//	curl -s localhost:8080/append -d '{"partitions":[{}]}'
//	curl -s localhost:8080/snapshot -o turbo.snap
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		datasetName = flag.String("dataset", "covid", "covid | citibike")
		mode        = flag.String("mode", "partitioned", "non-partitioned | partitioned | streaming")
		rows        = flag.Int("rows", 2_000_000, "synthetic dataset rows")
		weeks       = flag.Int("weeks", 16, "time partitions")
		alpha       = flag.Float64("alpha", 0.05, "accuracy target α")
		beta        = flag.Float64("beta", 0.001, "failure probability β")
		epsG        = flag.Float64("epsg", 10, "global privacy budget ε_G")
		gaussian    = flag.Bool("gaussian", false, "Rényi-DP accounting: compose every mechanism's Rényi curve per partition (Thm B.2 filter), enforcing (ε_G, δ_G)-DP")
		deltaG      = flag.Float64("delta", 1e-6, "δ_G for -gaussian")
		seed        = flag.Uint64("seed", 42, "deterministic seed")
		shards      = flag.Int("shards", runtime.NumCPU(), "concurrent executor shards (partitioned modes)")
		statePath   = flag.String("state", "", "snapshot file: restored at boot if present, written atomically on SIGINT/SIGTERM")
		backlog     = flag.Int("append-backlog", 0, "bound on queued /append batches; overflow sheds with 503 (0 = unbounded)")
		storeMaxMB  = flag.Int("store-max-mb", 0, "cache-store bound in MiB of payload (key + value bytes, what /schema reports); resident memory, /schema's resident_bytes, is about 1.5x that (0 = bytes unbounded). Either bound > 0 makes the store a segmented LRU")
		storeMaxEnt = flag.Int("store-max-entries", 0, "resident cache-store entry bound (0 = entries unbounded)")
		ckptEvery   = flag.Duration("checkpoint-interval", 0, "background checkpoint period for -state (0 disables; failures log and retry next tick)")
	)
	flag.Parse()
	if *ckptEvery > 0 && *statePath == "" {
		log.Fatal("turbo-server: -checkpoint-interval needs -state, the snapshot file it writes")
	}
	memCfg, err := storeConfig(*storeMaxMB, *storeMaxEnt)
	if err != nil {
		log.Fatalf("turbo-server: %v", err)
	}

	var (
		ds    *dataset.Dataset
		table string
	)
	switch *datasetName {
	case "covid":
		ds, err = workload.BuildCovid(workload.CovidConfig{Rows: *rows, Weeks: *weeks, Seed: *seed})
		table = "covid"
	case "citibike":
		ds, err = workload.BuildCitiBike(workload.CitiBikeConfig{Rows: *rows, Weeks: *weeks, Small: true, Seed: *seed})
		table = "citibike"
	default:
		log.Fatalf("turbo-server: unknown dataset %q", *datasetName)
	}
	if err != nil {
		log.Fatal(err)
	}

	var m core.Mode
	switch *mode {
	case "non-partitioned":
		m = core.NonPartitioned
	case "partitioned":
		m = core.Partitioned
	case "streaming":
		m = core.Streaming
	default:
		log.Fatalf("turbo-server: unknown mode %q", *mode)
	}
	cfg := core.Config{
		Mode: m, Alpha: *alpha, Beta: *beta, EpsilonGlobal: *epsG,
		Structure: tree.Binary, Seed: *seed,
		Shards: *shards, Backend: store.NewMem(memCfg),
	}
	if *gaussian {
		cfg.Gaussian = true
		cfg.DeltaGlobal = *deltaG
	}
	sess, err := core.NewSession(cfg, ds)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := server.New(sess, table, server.WithAppendBacklog(*backlog))
	if err != nil {
		log.Fatal(err)
	}

	// Durable state: restore before serving, checkpoint on shutdown. The
	// snapshot must have been taken by a server with the same flags (the
	// session identity — dataset build, mode, budgets — must match).
	// The dataset rides inside the snapshot (PersistDataset): the
	// synthetic store is in-memory, so without it a checkpoint taken
	// after any /append could never match a freshly-rebuilt dataset.
	if *statePath != "" {
		sess.PersistDataset()
		if f, err := os.Open(*statePath); err == nil {
			loadErr := sess.LoadState(f)
			f.Close()
			if loadErr != nil {
				log.Fatalf("turbo-server: restore %s: %v", *statePath, loadErr)
			}
			fmt.Printf("restored state from %s (%d queries served, avg spent %.4g)\n",
				*statePath, sess.Queries(), sess.AverageSpent())
		} else if !os.IsNotExist(err) {
			log.Fatal(err)
		}
	}

	// Background checkpointing: every -checkpoint-interval, write the
	// snapshot atomically (same quiesce barrier + temp-file+rename as the
	// shutdown checkpoint). A failed periodic checkpoint is logged and
	// retried next tick — SaveState never mutates, so a failure cannot
	// poison the session, and the atomic write discipline means a crash
	// mid-checkpoint never tears the previous good snapshot. Both
	// checkpoint paths go through the server, which refuses to write the
	// state a failed POST /restore left behind.
	ckptStop := make(chan struct{})
	ckptDone := make(chan struct{})
	if *ckptEvery > 0 {
		go func() {
			defer close(ckptDone)
			ticker := time.NewTicker(*ckptEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := persist.WriteFileAtomic(*statePath, func(w io.Writer) error {
						return srv.SaveState(w)
					}); err != nil {
						log.Printf("turbo-server: periodic checkpoint: %v (will retry)", err)
						continue
					}
					log.Printf("turbo-server: checkpointed state to %s", *statePath)
				case <-ckptStop:
					return
				}
			}
		}()
	} else {
		close(ckptDone)
	}

	guarantee := fmt.Sprintf("ε_G=%g", *epsG)
	if *gaussian {
		guarantee = fmt.Sprintf("(ε_G=%g, δ_G=%g) via Rényi composition", *epsG, *deltaG)
	}
	fmt.Printf("turbo-server: %s over %s (%d rows, %d partitions) with (α=%g, β=%g), %s, %d shards\n",
		m, ds.Domain(), ds.NRowsAll(), ds.Partitions(), *alpha, *beta, guarantee, *shards)
	endpoints := "POST /query, POST /query/batch, POST /groupby, GET /budget, GET /schema, GET /snapshot, POST /restore"
	if m != core.NonPartitioned {
		endpoints = "POST /query, POST /query/batch, POST /groupby, POST /append, GET /budget, GET /schema, GET /snapshot, POST /restore"
	}
	fmt.Printf("listening on http://%s  (%s)\n", *addr, endpoints)
	// A client that opens a connection and never finishes its request
	// headers must not hold it forever. Body and response time stay
	// unbounded: /append bodies (capped in size by the domain, not in
	// time), /restore bodies and /snapshot responses scale with the
	// deployment.
	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	shutdownDone := make(chan struct{})
	go func() {
		<-sigs
		// Stop accepting and wait for in-flight requests before the
		// checkpoint below: budget paid by a request racing the snapshot
		// would otherwise be forfeited on restore — released results
		// whose charge the restored accountant never saw. A hung
		// connection must not postpone the checkpoint forever, so the
		// drain is bounded and a second signal forces it immediately.
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		go func() {
			<-sigs
			hs.Close()
		}()
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
		close(shutdownDone)
	}()
	serveErr := hs.ListenAndServe()
	if !errors.Is(serveErr, http.ErrServerClosed) {
		log.Fatal(serveErr)
	}
	// ListenAndServe returns as soon as the listener closes; the drain
	// is done only when Shutdown itself has returned. Only then may the
	// ingestor drain and the checkpoint run — otherwise still-active
	// handlers (a /query paying budget, a /snapshot holding the quiesce)
	// would race them.
	<-shutdownDone
	// Stop the periodic checkpointer before the final one so their
	// SaveState captures never interleave.
	close(ckptStop)
	<-ckptDone
	srv.Close() // drain the ingestion worker: pending epochs apply before the snapshot
	if *statePath != "" {
		if err := persist.WriteFileAtomic(*statePath, func(w io.Writer) error {
			return srv.SaveState(w)
		}); err != nil {
			log.Fatalf("turbo-server: checkpoint: %v", err)
		}
		fmt.Printf("checkpointed state to %s\n", *statePath)
	}
}

// storeConfig maps -store-max-mb and -store-max-entries to the store's
// config: the zero MemConfig (uncapped) when both are 0, a capped store
// when either is positive. A negative cap is refused — store.Mem would
// read it as no cap at all.
func storeConfig(maxMB, maxEntries int) (store.MemConfig, error) {
	if maxMB < 0 {
		return store.MemConfig{}, fmt.Errorf("-store-max-mb %d is negative (0 = bytes unbounded)", maxMB)
	}
	if maxEntries < 0 {
		return store.MemConfig{}, fmt.Errorf("-store-max-entries %d is negative (0 = entries unbounded)", maxEntries)
	}
	return store.MemConfig{MaxBytes: maxMB << 20, MaxEntries: maxEntries}, nil
}
