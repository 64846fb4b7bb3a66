package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
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

// TestStateFromOlderBuildRefused: a -state file written by an older
// build's snapshot format (v2: the magic, version 2, gzip bytes) stops the
// boot with a non-zero exit naming both versions, before the server
// listens, and the file is left byte for byte as it was.
func TestStateFromOlderBuildRefused(t *testing.T) {
	var gz bytes.Buffer
	w := gzip.NewWriter(&gz)
	if _, err := w.Write([]byte("sections of an older build")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	old := append([]byte("TURBOSNP\x00\x00\x00\x02"), gz.Bytes()...)
	path := filepath.Join(t.TempDir(), "turbo.snap")
	if err := os.WriteFile(path, old, 0o600); err != nil {
		t.Fatal(err)
	}
	out, err := runMain(t, "-addr", "127.0.0.1:0", "-rows", "2000", "-weeks", "4", "-shards", "1", "-state", path)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("turbo-server on a v2 -state file: %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(out, "snapshot is v2, this build reads v3") || strings.Contains(out, "listening") {
		t.Fatalf("output does not refuse the v2 file before listening:\n%s", out)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("the refused -state file changed (err %v)", err)
	}
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
