// The closed-loop driver: C keep-alive connections, request i of the
// fixed sequence on connection i mod C, every response kept for checking
// after the clock stops.

package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// connections is the closed loop's client count: min(nproc, 4).
func connections() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// target answers requests for one connection. The socket target is the
// real server; the traced run adds in-process twins (trace.go).
type target interface {
	// do sends r and returns the status and body; body may alias buf.
	do(r *request, reqIdx int, buf []byte) (status int, body []byte, err error)
	close()
}

// socketTarget is one keep-alive connection to turbo-server, speaking
// HTTP/1.1 with pre-marshalled requests.
type socketTarget struct {
	c  net.Conn
	br *bufio.Reader
}

func dialSocket(addr string) (*socketTarget, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &socketTarget{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (t *socketTarget) do(r *request, _ int, buf []byte) (int, []byte, error) {
	return t.roundTrip(r.raw, buf)
}

func (t *socketTarget) roundTrip(raw, buf []byte) (int, []byte, error) {
	if _, err := t.c.Write(raw); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(t.br, nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return resp.StatusCode, buf, nil
		}
		if err != nil {
			return 0, nil, err
		}
	}
}

// get issues a GET on the connection (control-plane reads between phases).
func (t *socketTarget) get(path string) (int, []byte, error) {
	return t.roundTrip([]byte("GET "+path+" HTTP/1.1\r\nHost: turbo\r\n\r\n"), nil)
}

// post issues a POST with an opaque body (POST /restore).
func (t *socketTarget) post(path string, body []byte) (int, []byte, error) {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: turbo\r\nContent-Length: %d\r\n\r\n", path, len(body))
	return t.roundTrip(append([]byte(head), body...), nil)
}

func (t *socketTarget) close() { t.c.Close() }

// record is one completed request of the timed phase.
type record struct {
	req        int32 // index into generated.reqs
	seqPos     int32
	status     int16
	failed     bool // transport error
	start, end time.Duration
	bodyOff    int
	bodyLen    int
}

// connLog is one connection's records and the response bytes they index.
type connLog struct {
	recs  []record
	arena []byte
}

func (l *connLog) body(r record) []byte { return l.arena[r.bodyOff : r.bodyOff+r.bodyLen] }

// noWindow lets a phase run its whole sequence.
const noWindow = time.Duration(math.MaxInt64)

// driveOpts parameterises one timed phase.
type driveOpts struct {
	t0 time.Time
	// window is how long requests keep being issued; the sequence may run
	// out first.
	window time.Duration
	// checkpoint is the sequence position at which every connection
	// pauses once while atCheckpoint runs (budget read at a fixed request
	// count). The phase runs at least to the checkpoint, even past window.
	checkpoint   int
	atCheckpoint func()
	// baseParts seeds the stream_mix partition gate.
	baseParts int
	// onDone, when set, is called on the issuing goroutine after every
	// request (trace.go records the socket span there).
	onDone func(conn int, rec record)
}

// drive replays seq (indices into w.reqs) over the targets, one goroutine
// per target, and returns each connection's log.
func drive(w *generated, seq []int32, targets []target, o driveOpts) []*connLog {
	C := len(targets)
	logs := make([]*connLog, C)
	var parts atomic.Int64 // partitions the server is known to hold
	parts.Store(int64(o.baseParts))
	if o.checkpoint > len(seq) {
		o.checkpoint = len(seq)
	}
	// stopped frees connections waiting at the partition gate once a peer
	// has stopped issuing, whether its connection died or the window closed
	// on it: either may have owed them an append.
	var stopped atomic.Bool
	var atBarrier sync.WaitGroup
	atBarrier.Add(C)
	release := make(chan struct{})
	go func() {
		atBarrier.Wait()
		if o.atCheckpoint != nil {
			o.atCheckpoint()
		}
		close(release)
	}()

	var wg sync.WaitGroup
	for c := 0; c < C; c++ {
		wg.Add(1)
		logs[c] = &connLog{}
		go func(c int) {
			defer wg.Done()
			l, tgt := logs[c], targets[c]
			buf := make([]byte, 0, 8<<10)
			paused := false
			pause := func() {
				if !paused {
					paused = true
					atBarrier.Done()
					<-release
				}
			}
			defer pause() // a connection that stops early must not strand the barrier
			for i := c; i < len(seq); i += C {
				if i >= o.checkpoint {
					pause()
					if time.Since(o.t0) >= o.window {
						stopped.Store(true)
						return
					}
				}
				r := &w.reqs[seq[i]]
				for parts.Load() < int64(r.needParts) {
					if stopped.Load() {
						return
					}
					time.Sleep(50 * time.Microsecond)
				}
				rec := record{req: seq[i], seqPos: int32(i), start: time.Since(o.t0)}
				status, body, err := tgt.do(r, i, buf)
				rec.end = time.Since(o.t0)
				rec.status, rec.failed = int16(status), err != nil
				rec.bodyOff, rec.bodyLen = len(l.arena), len(body)
				l.arena = append(l.arena, body...)
				l.recs = append(l.recs, rec)
				if o.onDone != nil {
					o.onDone(c, rec)
				}
				if r.op == opAppend {
					parts.Add(1)
				}
				if err != nil {
					stopped.Store(true)
					return // the connection is gone; what it did not send is not attempted
				}
				if cap(body) > cap(buf) {
					buf = body[:0]
				}
			}
		}(c)
	}
	wg.Wait()
	return logs
}
