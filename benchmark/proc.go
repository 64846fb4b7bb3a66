// Process plumbing: build cmd/turbo-server, start it on a free loopback
// port, read its /proc counters, and stop it on every exit path.

package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory, which is benchmark/ under
// `go -C benchmark run .` and `go -C benchmark test .`, to the directory
// holding the go.mod of module `repro` itself.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\n"); strings.TrimSpace(first) == "module repro" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no `module repro` go.mod above the working directory")
		}
		dir = parent
	}
}

// outDir is benchmark/out under the repository root: the server binary,
// server logs and trace files all land there (benchmark/.gitignore).
func outDir(root string) string { return filepath.Join(root, "benchmark", "out") }

// buildServer compiles ./cmd/turbo-server into benchmark/out/bin. It runs
// on every invocation and leaves the staleness decision to the go tool's
// build IDs, so a binary left behind by other source is never reused.
func buildServer(root string) (bin string, took time.Duration, err error) {
	bin = filepath.Join(outDir(root), "bin", "turbo-server")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/turbo-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/turbo-server: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// freePort picks a loopback port by listen-and-close.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// serverProc is one running turbo-server child.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	// exited closes once the child has been reaped.
	exited  chan struct{}
	stopped sync.Once
}

// live tracks every running child so the SIGINT handler and fatal paths
// can kill and reap them all.
var live struct {
	sync.Mutex
	procs map[*serverProc]struct{}
}

// startServer launches bin with the workload's flags (always -seed 42) and
// waits until /schema answers 200.
func startServer(bin, logPath string, flags []string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr, "-seed", "42"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with the benchmark even when the benchmark is killed
	// too hard to run its own cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, addr: addr, log: logf, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child is not news
		close(p.exited)
	}()
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*serverProc]struct{})
	}
	live.procs[p] = struct{}{}
	live.Unlock()

	// Poll finely: the server is up within milliseconds, and a coarse poll
	// would quantise setup_s.
	client := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			resp, err := client.Get("http://" + addr + "/schema")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
		}
		select {
		case <-p.exited:
			p.stop()
			return nil, fmt.Errorf("turbo-server %v exited before serving (see %s)", flags, logPath)
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("turbo-server %v never answered /schema (see %s)", flags, logPath)
		}
	}
	client.CloseIdleConnections()
	return p, nil
}

// stop kills and reaps the child; safe to call more than once.
func (p *serverProc) stop() {
	p.stopped.Do(func() {
		_ = p.cmd.Process.Kill() // an already-exited child reports an error we do not need
		<-p.exited
		p.log.Close()
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
	})
}

// stopAll kills and reaps every running child.
func stopAll() {
	live.Lock()
	procs := make([]*serverProc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

// peakRSSMB reads the child's VmHWM (peak resident set) in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// runNs sums the on-CPU nanoseconds of every thread of the child
// (/proc/<pid>/task/*/schedstat, first field). Threads that exit between
// the directory read and the file read are skipped.
func (p *serverProc) runNs() uint64 {
	return taskRunNs(fmt.Sprintf("/proc/%d/task", p.cmd.Process.Pid))
}

func taskRunNs(taskDir string) uint64 {
	ents, err := os.ReadDir(taskDir)
	if err != nil {
		return 0
	}
	var total uint64
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(taskDir, e.Name(), "schedstat"))
		if err != nil {
			continue
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			ns, _ := strconv.ParseUint(f[0], 10, 64)
			total += ns
		}
	}
	return total
}
