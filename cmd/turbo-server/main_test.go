package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/workload"
)

// TestMain runs the server itself when re-executed by a test that needs a
// real process (runMain).
func TestMain(m *testing.M) {
	if os.Getenv("TURBO_SERVER_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs turbo-server with args in a child process and returns its
// combined output and exit error.
func runMain(t *testing.T, args ...string) (string, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TURBO_SERVER_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestStateFromOlderBuildRefused: a -state file an older build wrote stops
// the boot with a non-zero exit naming what this build cannot read, before
// the server listens, and the file is left byte for byte as it was. Two
// such files: one in the v2 snapshot format (the magic, version 2, gzip
// bytes), and a v3 one from a build that kept a tree node cache, whose
// "cache/tree-node" section no layer of this build owns. A v3 file whose
// dataset section carries a NaN count is refused the same way.
func TestStateFromOlderBuildRefused(t *testing.T) {
	args := []string{"-addr", "127.0.0.1:0", "-rows", "2000", "-weeks", "4", "-shards", "1"}
	for _, tc := range []struct {
		name, want string
		file       func(t *testing.T) []byte
	}{
		{"v2", "snapshot is v2, this build reads v3", v2Snapshot},
		{"tree-node", `unknown snapshot section: "cache/tree-node"`, treeNodeSnapshot},
		{"nan-count", "has count NaN at bin", nanCountSnapshot},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := tc.file(t)
			path := filepath.Join(t.TempDir(), "turbo.snap")
			if err := os.WriteFile(path, old, 0o600); err != nil {
				t.Fatal(err)
			}
			out, err := runMain(t, append(args, "-state", path)...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("turbo-server on the %s -state file: %v, want exit 1\n%s", tc.name, err, out)
			}
			if !strings.Contains(out, tc.want) || strings.Contains(out, "listening") {
				t.Fatalf("output does not refuse the %s file before listening:\n%s", tc.name, out)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
				t.Fatalf("the refused -state file changed (err %v)", err)
			}
		})
	}
}

// v2Snapshot is a file in the snapshot format before v3.
func v2Snapshot(t *testing.T) []byte {
	var gz bytes.Buffer
	w := gzip.NewWriter(&gz)
	if _, err := w.Write([]byte("sections of an older build")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return append([]byte("TURBOSNP\x00\x00\x00\x02"), gz.Bytes()...)
}

// bootSnapshot is the v3 snapshot this build writes at boot with
// TestStateFromOlderBuildRefused's flags, each section's payload passed
// through edit, then the extra sections (name, payload pairs).
func bootSnapshot(t *testing.T, edit func(name string, p []byte) []byte, extra ...string) []byte {
	ds, err := workload.BuildCovid(workload.CovidConfig{Rows: 2000, Weeks: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(core.Config{
		Mode: core.Partitioned, Alpha: 0.05, Beta: 0.001, EpsilonGlobal: 10,
		Structure: tree.Binary, Seed: 42, Shards: 1,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	sess.PersistDataset()
	var snap bytes.Buffer
	if err := sess.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	payloads, order, err := persist.ReadSections(&snap)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w, err := persist.NewWriter(&out)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range order {
		if err := w.WriteSection(name, edit(name, payloads[name])); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if err := w.WriteSection(extra[i], []byte(extra[i+1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// treeNodeSnapshot is the v3 snapshot an older build wrote at boot with
// TestStateFromOlderBuildRefused's flags: this build's sections plus the
// empty "cache/tree-node" section (one stripe, no entries) its tree's
// node cache registered.
func treeNodeSnapshot(t *testing.T) []byte {
	var stripes persist.Encoder
	stripes.PutUvarint(1) // one stripe
	stripes.PutInt(0)     // its index
	stripes.PutUvarint(0) // no entries
	keep := func(_ string, p []byte) []byte { return p }
	return bootSnapshot(t, keep, "cache/tree-node", string(stripes.Payload()))
}

// nanCountSnapshot is the boot snapshot with one count of its dataset
// section's first partition replaced by NaN.
func nanCountSnapshot(t *testing.T) []byte {
	return bootSnapshot(t, func(name string, p []byte) []byte {
		if name != "dataset/partitions" {
			return p
		}
		dec := persist.NewDecoder(p)
		var e persist.Encoder
		e.PutInt(dec.Int())
		parts := dec.Count(3)
		e.PutUvarint(uint64(parts))
		for i := 0; i < parts; i++ {
			counts := dec.Floats()
			if i == 0 {
				counts[len(counts)-1] = math.NaN()
			}
			e.PutFloats(counts)
			e.PutInt(dec.Int())
			e.PutInt(dec.Int())
		}
		if err := dec.Finish(); err != nil {
			t.Fatal(err)
		}
		return e.Payload()
	})
}

// TestStoreConfig pins the two-flag → store.MemConfig mapping: no cap is
// the zero config (the uncapped store), a cap is carried through in the
// unit the store counts, and a negative one is refused naming its flag
// instead of reaching a store that would read it as unbounded.
func TestStoreConfig(t *testing.T) {
	for _, tc := range []struct {
		maxMB, maxEntries int
		want              store.MemConfig
		errNames          string
	}{
		{0, 0, store.MemConfig{}, ""},
		{1, 0, store.MemConfig{MaxBytes: 1 << 20}, ""},
		{0, 7, store.MemConfig{MaxEntries: 7}, ""},
		{-5, 0, store.MemConfig{}, "-store-max-mb"},
		{0, -1, store.MemConfig{}, "-store-max-entries"},
	} {
		got, err := storeConfig(tc.maxMB, tc.maxEntries)
		if tc.errNames != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errNames) {
				t.Errorf("storeConfig(%d, %d) = %+v, %v; want an error naming %s", tc.maxMB, tc.maxEntries, got, err, tc.errNames)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("storeConfig(%d, %d) = %+v, %v; want %+v", tc.maxMB, tc.maxEntries, got, err, tc.want)
		}
	}
}
