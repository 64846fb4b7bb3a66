package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/server/httpd"
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
// the server listens, and the file is left byte for byte as it was. Seven
// such files: one in the v2 snapshot format (the magic, version 2, gzip
// bytes), one in v3 (this build's sections under the version before the
// cache entry lost its data version), one in v4 (the same, under the
// version before the cache entry lost its ε), one in v5 (the same, under
// the version whose cache values were tagged byte strings), one in v6
// (the same, under the version whose dataset section was optional and
// held float counts), one in v7 (the same, under the version whose
// core/meta section carried the answer counters), and one carrying the "cache/tree-node" section a
// build with a tree node cache wrote, which no layer of this build owns.
// A file whose dataset is not the boot's — one count of partition 0
// differs — or whose cache section holds a NaN release, is refused the
// same way.
func TestStateFromOlderBuildRefused(t *testing.T) {
	args := []string{"-addr", "127.0.0.1:0", "-rows", "2000", "-weeks", "4"}
	for _, tc := range []struct {
		name, want string
		file       func(t *testing.T) []byte
	}{
		{"v2", "snapshot is v2, this build reads v8", v2Snapshot},
		{"v3", "snapshot is v3, this build reads v8", olderSnapshot(3)},
		{"v4", "snapshot is v4, this build reads v8", olderSnapshot(4)},
		{"v5", "snapshot is v5, this build reads v8", olderSnapshot(5)},
		{"v6", "snapshot is v6, this build reads v8", olderSnapshot(6)},
		{"v7", "snapshot is v7, this build reads v8", olderSnapshot(7)},
		{"tree-node", `unknown snapshot section: "cache/tree-node"`, treeNodeSnapshot},
		{"foreign-count", "snapshot's partition 0 holds", foreignCountSnapshot},
		{"nan-value", "value NaN is not a release", nanValueSnapshot},
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

// TestUnresolvableAddrRefused: an -addr whose host is a name other than
// localhost stops the boot with a non-zero exit naming it, before the
// server listens: turbo-server resolves no names.
func TestUnresolvableAddrRefused(t *testing.T) {
	out, err := runMain(t, "-addr", "nosuchhost:0", "-rows", "2000", "-weeks", "4")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("turbo-server -addr nosuchhost:0: %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(out, `host "nosuchhost"`) || strings.Contains(out, "listening on") {
		t.Fatalf("output does not refuse the address before listening:\n%s", out)
	}
}

// TestNegativeBoundRefused: a negative -checkpoint-interval, which would
// silently turn periodic checkpoints off, stops the boot with exit 1
// naming the flag, before the server listens.
func TestNegativeBoundRefused(t *testing.T) {
	state := filepath.Join(t.TempDir(), "turbo.snap")
	for flagName, value := range map[string]string{
		"-checkpoint-interval": "-1s",
	} {
		t.Run(flagName[1:], func(t *testing.T) {
			out, err := runMain(t, "-addr", "127.0.0.1:0", "-rows", "2000", "-weeks", "4", "-state", state, flagName, value)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("turbo-server %s %s: %v, want exit 1\n%s", flagName, value, err, out)
			}
			if !strings.Contains(out, flagName+" "+value) || strings.Contains(out, "listening") {
				t.Fatalf("output does not refuse %s before listening:\n%s", flagName, out)
			}
		})
	}
	if _, err := os.Stat(state); !os.IsNotExist(err) {
		t.Fatalf("a refused boot touched the -state file: %v", err)
	}
}

// TestStateBootClosesRestore: a server booted with -state has restored
// once, so a POST /restore is 409 conflict and leaves it serving, even
// when the snapshot came from a server that had only appended and so
// counted no answer.
func TestStateBootClosesRestore(t *testing.T) {
	ds, err := workload.BuildCovid(workload.CovidConfig{Rows: 2000, Weeks: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(core.Config{
		Mode: core.Streaming, Alpha: 0.05, Beta: 0.001, EpsilonGlobal: 10,
		Structure: tree.Binary, Seed: 42,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AppendPartitions(core.Arrival{}); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := sess.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(t.TempDir(), "turbo.snap")
	if err := os.WriteFile(state, snap.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	srv := startMain(t, "-addr", "127.0.0.1:0", "-mode", "streaming", "-rows", "2000", "-weeks", "4", "-state", state)
	if !strings.Contains(srv.out.String(), "restored state from") {
		t.Fatalf("the server did not restore:\n%s", srv.out)
	}
	client := &http.Client{Transport: &http.Transport{}}
	resp, err := client.Post("http://"+srv.addr+"/restore", "application/octet-stream", bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), `"conflict"`) {
		t.Fatalf("POST /restore into a server booted with -state: %d %s, want 409 conflict", resp.StatusCode, body)
	}
	if status, _, err := srv.query(client, "SELECT COUNT(*) FROM covid WHERE time BETWEEN 4 AND 4"); err != nil || status != http.StatusOK {
		t.Fatalf("a query over the restored partition after the 409: %d %v", status, err)
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

// olderSnapshot is the boot snapshot with its header's format version set
// to version: the envelope of an older build, whose sections differ.
func olderSnapshot(version byte) func(t *testing.T) []byte {
	return func(t *testing.T) []byte {
		snap := bootSnapshot(t, func(_ string, p []byte) []byte { return p })
		snap[len("TURBOSNP")+3] = version
		return snap
	}
}

// bootSnapshot is the v8 snapshot this build writes at boot with
// TestStateFromOlderBuildRefused's flags, each section's payload passed
// through edit, then the extra sections (name, payload pairs).
func bootSnapshot(t *testing.T, edit func(name string, p []byte) []byte, extra ...string) []byte {
	ds, err := workload.BuildCovid(workload.CovidConfig{Rows: 2000, Weeks: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(core.Config{
		Mode: core.Partitioned, Alpha: 0.05, Beta: 0.001, EpsilonGlobal: 10,
		Structure: tree.Binary, Seed: 42,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := sess.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	payloads, err := persist.ReadSections(&snap)
	if err != nil {
		t.Fatal(err)
	}
	order := slices.Sorted(maps.Keys(payloads))
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

// treeNodeSnapshot is the snapshot a build with a tree node cache wrote
// at boot with TestStateFromOlderBuildRefused's flags: this build's
// sections plus the empty "cache/tree-node" section (one stripe, no
// entries) its tree's node cache registered.
func treeNodeSnapshot(t *testing.T) []byte {
	var stripes persist.Encoder
	stripes.PutUvarint(1) // one stripe
	stripes.PutInt(0)     // its index
	stripes.PutUvarint(0) // no entries
	keep := func(_ string, p []byte) []byte { return p }
	return bootSnapshot(t, keep, "cache/tree-node", string(stripes.Payload()))
}

// foreignCountSnapshot is the boot snapshot with the last count of its
// dataset section's first partition one higher: a snapshot of another
// dataset.
func foreignCountSnapshot(t *testing.T) []byte {
	return bootSnapshot(t, func(name string, p []byte) []byte {
		if name != "dataset/partitions" {
			return p
		}
		bins := workload.CovidDomain().Size()
		dec := persist.NewDecoder(p)
		var e persist.Encoder
		parts := dec.Count(bins)
		e.PutUvarint(uint64(parts))
		for i := range parts * bins {
			c := dec.Uvarint()
			if i == bins-1 {
				c++ // partition 0's last bin
			}
			e.PutUvarint(c)
		}
		if err := dec.Finish(); err != nil {
			t.Fatal(err)
		}
		return e.Payload()
	})
}

// nanValueSnapshot is the boot snapshot whose cache section holds one
// release, under a key of partition 0's window, whose value is NaN.
func nanValueSnapshot(t *testing.T) []byte {
	return bootSnapshot(t, func(name string, p []byte) []byte {
		if name != "cache/session-exact" {
			return p
		}
		var e persist.Encoder
		e.PutUvarint(1)
		e.PutString("\x01\x00\x00\x01\x01\x01\xff")
		e.PutFloat(math.NaN())
		return e.Payload()
	})
}

// TestStoreConfig pins the flag → store.MemConfig mapping: no cap is the
// zero config (the uncapped store), a cap is carried through in the unit
// the store counts, and a negative one, or one above the largest cap one
// arena always honours, is refused naming its flag instead of reaching a
// store that would read it as unbounded or refuse fills. That largest cap
// is the record layout's figure, derived from the width of a cache entry:
// a capped record of the smallest entry (a 1-byte key and the 8-byte
// value) is its payload plus 16 bytes of header and LRU links, a 64 KiB
// chunk filled to within one 1 KiB record holds (65,536 − 1,023) ×
// payload / record bytes of payload, and 65,528 of the 65,536 chunk slots
// are filled (1,451 MiB).
func TestStoreConfig(t *testing.T) {
	payload := 1 + 8
	if want := (65_536 - 8) * ((65_536 - 1_023) * payload / (16 + payload)); cache.MaxStoreBytes != want || maxStoreMB != want>>20 {
		t.Fatalf("largest cap %d MiB (%d bytes), want %d MiB (%d bytes)", maxStoreMB, cache.MaxStoreBytes, want>>20, want)
	}
	for _, tc := range []struct {
		maxMB int
		want  store.MemConfig
		err   bool
	}{
		{0, store.MemConfig{}, false},
		{1, store.MemConfig{MaxBytes: 1 << 20}, false},
		{maxStoreMB, store.MemConfig{MaxBytes: maxStoreMB << 20}, false},
		{-5, store.MemConfig{}, true},
		{maxStoreMB + 1, store.MemConfig{}, true},
		{1 << 43, store.MemConfig{}, true}, // shifts to -2^63
		{1 << 44, store.MemConfig{}, true}, // shifts to 0
	} {
		got, err := storeConfig(tc.maxMB)
		if tc.err {
			if err == nil || !strings.Contains(err.Error(), "-store-max-mb") {
				t.Errorf("storeConfig(%d) = %+v, %v; want an error naming -store-max-mb", tc.maxMB, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("storeConfig(%d) = %+v, %v; want %+v", tc.maxMB, got, err, tc.want)
		}
	}
}

// child is a turbo-server running in a child process.
type child struct {
	cmd  *exec.Cmd
	addr string
	out  *lockedBuffer
}

// lockedBuffer collects a child's output while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startMain starts turbo-server with args in a child process and waits
// until it listens.
func startMain(t *testing.T, args ...string) *child {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TURBO_SERVER_TEST_MAIN=1")
	c := &child{cmd: cmd, out: &lockedBuffer{}}
	cmd.Stdout, cmd.Stderr = c.out, c.out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() })
	listening := regexp.MustCompile(`listening on http://(\S+)`)
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := listening.FindStringSubmatch(c.out.String()); m != nil {
			c.addr = m[1]
			return c
		}
	}
	t.Fatalf("turbo-server never listened:\n%s", c.out)
	return nil
}

// query posts one statement and returns the status and the answer.
func (c *child) query(client *http.Client, sql string) (int, httpd.QueryResponse, error) {
	var qr httpd.QueryResponse
	body, _ := json.Marshal(httpd.QueryRequest{SQL: sql})
	resp, err := client.Post("http://"+c.addr+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, qr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&qr)
	}
	return resp.StatusCode, qr, err
}

// TestShutdownDrainsHandlersNotClients: SIGTERM, with two clients sending
// distinct misses and a third connection stalled mid-head, makes
// turbo-server stop accepting, finish the handlers already running and
// checkpoint, and exit 0 well before the stalled head's deadline. A server
// restored from the checkpoint holds the charge of every statement a
// client saw answered: it answers each as an exact hit that pays nothing.
func TestShutdownDrainsHandlersNotClients(t *testing.T) {
	state := filepath.Join(t.TempDir(), "turbo.snap")
	args := []string{"-addr", "127.0.0.1:0", "-rows", "20000", "-weeks", "8", "-state", state}
	first := startMain(t, args...)
	stalled, err := net.Dial("tcp", first.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "POST /query HTTP/1.1\r\nHost: t\r\n"); err != nil {
		t.Fatal(err)
	}

	var (
		mu       sync.Mutex
		answered []string
		wg       sync.WaitGroup
	)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
			for s := 0; s < 8; s++ {
				for e := s; e < 8; e++ {
					for age := 0; age < 4; age++ {
						sql := fmt.Sprintf("SELECT COUNT(*) FROM covid WHERE positive = %d AND age = %d AND time BETWEEN %d AND %d", c, age, s, e)
						status, _, err := first.query(client, sql)
						if err != nil {
							return // the server has shut down
						}
						if status == http.StatusOK {
							mu.Lock()
							answered = append(answered, sql)
							mu.Unlock()
						}
					}
				}
			}
		}(c)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := len(answered)
		mu.Unlock()
		if n >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d statements answered before the signal", n)
		}
	}
	sent := time.Now()
	if err := first.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- first.cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("turbo-server after SIGTERM: %v\n%s", err, first.out)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("turbo-server still runs 5 s after SIGTERM: the drain waits on a client\n%s", first.out)
	}
	wg.Wait()
	if !strings.Contains(first.out.String(), "checkpointed state to") {
		t.Fatalf("no checkpoint written:\n%s", first.out)
	}

	t.Logf("%d statements answered, exit %v after SIGTERM", len(answered), time.Since(sent))
	second := startMain(t, args...)
	if !strings.Contains(second.out.String(), "restored state from") {
		t.Fatalf("the second server did not restore:\n%s", second.out)
	}
	client := &http.Client{Transport: &http.Transport{}}
	for _, sql := range answered {
		status, qr, err := second.query(client, sql)
		if err != nil || status != http.StatusOK || qr.Source != "exact-hit" || qr.Paid != 0 {
			t.Fatalf("%s after the restore: %d %+v %v, want an exact hit that pays nothing", sql, status, qr, err)
		}
	}
	resp, err := client.Get("http://" + second.addr + "/budget")
	if err != nil {
		t.Fatal(err)
	}
	var budget httpd.BudgetResponse
	err = json.NewDecoder(resp.Body).Decode(&budget)
	resp.Body.Close()
	if err != nil || budget.Queries < int64(len(answered)) {
		t.Fatalf("/budget after the replay: %+v %v, want queries_answered >= %d", budget, err, len(answered))
	}
	if err := second.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := second.cmd.Wait(); err != nil {
		t.Fatalf("second turbo-server after SIGTERM: %v\n%s", err, second.out)
	}
}
