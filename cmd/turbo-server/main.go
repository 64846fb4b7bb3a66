// turbo-server serves a Turbo-cached DP database over HTTP/1.1: the trusted
// aggregate-only interface of the paper's motivating scenario. Analysts
// POST linear SQL to /query; /budget and /schema expose the public
// accounting and schema state; partitioned and streaming deployments
// ingest new time partitions through POST /append (batched arrivals, each
// applied on its own connection, with eager warm-start in streaming mode).
//
// Durable state: -state loads a snapshot at boot (when the file exists),
// before the listener opens, and writes one atomically (temp file +
// rename) on SIGINT/SIGTERM, so a restart forfeits neither spent budget
// nor cache warmth. A file this build cannot restore — one written by an
// older build's snapshot format included — stops the boot with a non-zero
// exit and is left as it was. GET /snapshot exposes the same envelope over HTTP,
// and POST /restore loads one into a server that has not yet served:
// the first analyst request closes that window (a later restore is 409),
// and a refused restore leaves the server as it was.
//
// -addr is HOST:PORT, HOST an IP address, localhost or empty: the binary
// is static and resolves no names, so another one stops the boot.
//
//	turbo-server -addr :8080 -dataset covid -mode streaming
//	curl -s localhost:8080/query -d '{"sql":"SELECT COUNT(*) FROM covid WHERE positive = 1"}'
//	curl -s localhost:8080/append -d '{"partitions":[{}]}'
//	curl -s localhost:8080/snapshot -o turbo.snap
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/persist"
	"repro/internal/server/httpd"
	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address HOST:PORT; HOST is an IP address ([IPv6]), localhost, or empty for every interface")
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
		statePath   = flag.String("state", "", "snapshot file: restored at boot if present, written atomically on SIGINT/SIGTERM")
		storeMaxMB  = flag.Int("store-max-mb", 0, fmt.Sprintf("cache-store bound in MiB of payload (key + value bytes, what /schema reports), at most %d: the most one 4 GiB arena always holds; resident memory, /schema's resident_bytes, is about 2.4x that. 0 leaves the store unbounded; > 0 makes it a segmented LRU", maxStoreMB))
		ckptEvery   = flag.Duration("checkpoint-interval", 0, "background checkpoint period for -state (0 disables; failures log and retry next tick)")
	)
	flag.Parse()
	// A negative period would read as none at all: periodic checkpoints
	// off. Refuse it, as storeConfig refuses a negative store cap.
	if *ckptEvery < 0 {
		log.Fatalf("turbo-server: -checkpoint-interval %v is negative (0 disables)", *ckptEvery)
	}
	if *ckptEvery > 0 && *statePath == "" {
		log.Fatal("turbo-server: -checkpoint-interval needs -state, the snapshot file it writes")
	}
	memCfg, err := storeConfig(*storeMaxMB)
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
		Backend: store.NewMem(memCfg),
	}
	if *gaussian {
		cfg.Gaussian = true
		cfg.DeltaGlobal = *deltaG
	}
	sess, err := core.NewSession(cfg, ds)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := httpd.New(sess, table)
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
	// snapshot atomically (same capture + temp-file+rename as the
	// shutdown checkpoint). A failed periodic checkpoint is logged and
	// retried next tick — SaveState never mutates, so a failure cannot
	// poison the session, and the atomic write discipline means a crash
	// mid-checkpoint never tears the previous good snapshot. Both
	// checkpoint paths go through the server, whose latch keeps a capture
	// from interleaving with a POST /restore.
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
	fmt.Printf("turbo-server: %s over %s (%d rows, %d partitions) with (α=%g, β=%g), %s\n",
		m, ds.Domain(), ds.NRowsAll(), ds.Partitions(), *alpha, *beta, guarantee)
	endpoints := "POST /query, POST /query/batch, POST /groupby, GET /budget, GET /schema, GET /snapshot, POST /restore"
	if m != core.NonPartitioned {
		endpoints = "POST /query, POST /query/batch, POST /groupby, POST /append, GET /budget, GET /schema, GET /snapshot, POST /restore"
	}
	ln, err := httpd.Listen(*addr)
	if err != nil {
		log.Fatalf("turbo-server: %v", err)
	}
	fmt.Printf("listening on http://%s  (%s)\n", ln.Addr(), endpoints)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	shutdownDone := make(chan struct{})
	go func() {
		<-sigs
		// Stop accepting and wait for the handlers already running before
		// the checkpoint below: budget paid by a request racing the
		// snapshot would otherwise be forfeited on restore — released
		// results whose charge the restored accountant never saw. No
		// handler waits on a client (bodies are read before it runs and
		// responses written after), so neither does the drain.
		srv.Shutdown()
		close(shutdownDone)
	}()
	if err := srv.Serve(ln); !errors.Is(err, httpd.ErrServerClosed) {
		log.Fatal(err)
	}
	// Serve returns as soon as the listener closes; the drain is done
	// only when Shutdown itself has returned. Only then may the checkpoint
	// run — otherwise still-active handlers (a /query paying budget, an
	// /append growing the dataset) would race it.
	<-shutdownDone
	// Stop the periodic checkpointer before the final one so their
	// SaveState captures never interleave.
	close(ckptStop)
	<-ckptDone
	if *statePath != "" {
		if err := persist.WriteFileAtomic(*statePath, func(w io.Writer) error {
			return srv.SaveState(w)
		}); err != nil {
			log.Fatalf("turbo-server: checkpoint: %v", err)
		}
		fmt.Printf("checkpointed state to %s\n", *statePath)
	}
}

// maxStoreMB is the largest -store-max-mb: the largest cap, in whole MiB,
// whose live capped entries one arena always holds (cache.MaxStoreBytes).
var maxStoreMB = cache.MaxStoreBytes >> 20

// storeConfig maps -store-max-mb to the store's config: the zero
// MemConfig (uncapped) at 0, a capped store when positive. A negative cap
// is refused — store.Mem would read it as no cap at all — and so is one
// above maxStoreMB, under which the store would refuse fills rather than
// evict.
func storeConfig(maxMB int) (store.MemConfig, error) {
	if maxMB < 0 || maxMB > maxStoreMB {
		return store.MemConfig{}, fmt.Errorf("-store-max-mb %d is outside [0, %d] (0 = unbounded)", maxMB, maxStoreMB)
	}
	return store.MemConfig{MaxBytes: maxMB << 20}, nil
}
