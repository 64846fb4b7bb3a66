package httpd

import (
	"errors"
	"net"
	"net/netip"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestListenAddrForms: Listen takes an IPv4 address, a bracketed IPv6
// address, localhost and an empty host (every interface), each with a
// port or 0 for a free one; an accepted connection reports its client's
// address. Any other host, a missing port and a port past 65535 are
// refused, naming what is wrong.
func TestListenAddrForms(t *testing.T) {
	for _, tc := range []struct {
		addr        string
		bound, dial netip.Addr
	}{
		{"127.0.0.1:0", netip.MustParseAddr("127.0.0.1"), netip.MustParseAddr("127.0.0.1")},
		{"localhost:0", netip.MustParseAddr("127.0.0.1"), netip.MustParseAddr("127.0.0.1")},
		{":0", netip.Addr{}, netip.MustParseAddr("127.0.0.1")},
		{"[::1]:0", netip.MustParseAddr("::1"), netip.MustParseAddr("::1")},
	} {
		t.Run(tc.addr, func(t *testing.T) {
			l, err := Listen(tc.addr)
			if tc.bound.Is6() && (errors.Is(err, syscall.EADDRNOTAVAIL) || errors.Is(err, syscall.EAFNOSUPPORT)) {
				t.Skipf("no IPv6 loopback: %v", err)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			got := l.Addr()
			if got.Port() == 0 || (tc.bound.IsValid() && got.Addr() != tc.bound) || (!tc.bound.IsValid() && !got.Addr().IsUnspecified()) {
				t.Fatalf("bound to %s", got)
			}
			client, err := net.Dial("tcp", netip.AddrPortFrom(tc.dial, got.Port()).String())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			c, err := l.accept()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if want := client.LocalAddr().String(); c.peer.String() != want {
				t.Errorf("peer %s, the client is %s", c.peer, want)
			}
		})
	}
	for addr, why := range map[string]string{
		"example.invalid:80": "no other name is resolved",
		"127.0.0.1":          "no port",
		"127.0.0.1:65536":    "from 0 to 65535",
		"::1:80":             "bracketed IPv6",
		"[fe80::1%lo]:0":     "without a zone",
	} {
		if l, err := Listen(addr); err == nil || !strings.Contains(err.Error(), why) {
			if l != nil {
				l.Close()
			}
			t.Errorf("Listen(%q): %v, want a refusal saying %q", addr, err, why)
		}
	}
}

// TestAcceptedSocketOptions: an accepted connection has what package net
// would set on it: TCP_NODELAY, and keep-alive probes after 15 idle
// seconds, 15 seconds apart.
func TestAcceptedSocketOptions(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	c, err := l.accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rc, err := c.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string][3]int{
		"TCP_NODELAY":   {syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
		"SO_KEEPALIVE":  {syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
		"TCP_KEEPIDLE":  {syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15},
		"TCP_KEEPINTVL": {syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15},
	} {
		var v int
		var gerr error
		if err := rc.Control(func(fd uintptr) { v, gerr = syscall.GetsockoptInt(int(fd), o[0], o[1]) }); err != nil || gerr != nil {
			t.Fatal(err, gerr)
		}
		if v != o[2] {
			t.Errorf("%s = %d, want %d", name, v, o[2])
		}
	}
}

// TestShutdownUnblocksAccept: an accept waiting on the poller returns
// os.ErrClosed when its listener closes, and a Serve waiting in accept
// returns ErrServerClosed on Shutdown.
func TestShutdownUnblocksAccept(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan error, 1)
	go func() {
		_, err := l.accept()
		accepted <- err
	}()
	l.Close()
	select {
	case err := <-accepted:
		if !errors.Is(err, os.ErrClosed) {
			t.Fatalf("accept on a closed listener: %v, want os.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("accept still waits after Close")
	}

	srv := newTestServer(t, 100)
	if l, err = Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	// One request answered: Serve has accepted and gone back to accept.
	if resp, _ := dial(t, l.Addr().String()).read2("GET /budget HTTP/1.1\r\n\r\n"); resp.StatusCode != 200 {
		t.Fatal(resp.Status)
	}
	srv.Shutdown()
	select {
	case err := <-served:
		if err != ErrServerClosed {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve still accepts after Shutdown")
	}
}

// TestServeOutlivesDescriptorExhaustion: with no descriptor free, accept
// fails with EMFILE and leaves the connection queued. Serve waits it
// out, and once descriptors free up it accepts and answers the same
// connection.
func TestServeOutlivesDescriptorExhaustion(t *testing.T) {
	srv := newTestServer(t, 100)
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })

	// Lower the descriptor limit just past the lowest free descriptor and
	// fill the table below it.
	var limit syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &limit); err != nil {
		t.Fatal(err)
	}
	var fillers []int
	free := func() {
		for _, fd := range fillers {
			syscall.Close(fd)
		}
		fillers = nil
	}
	t.Cleanup(func() {
		free()
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &limit); err != nil {
			t.Error(err)
		}
	})
	for {
		fd, err := syscall.Open(os.DevNull, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if errors.Is(err, syscall.EMFILE) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if fillers = append(fillers, fd); len(fillers) == 1 {
			lowered := limit
			lowered.Cur = uint64(fd) + 16
			if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lowered); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One descriptor back, for the client's socket.
	syscall.Close(fillers[len(fillers)-1])
	fillers = fillers[:len(fillers)-1]
	k := dial(t, l.Addr().String())
	if _, err := l.accept(); !errors.Is(err, syscall.EMFILE) {
		t.Fatalf("accept with no descriptor free: %v, want EMFILE", err)
	}

	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-served; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	k.send("GET /budget HTTP/1.1\r\n\r\n")
	_ = k.c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := k.br.Peek(1); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("with no descriptor free, the client read %v, want a timeout", err)
	}
	select {
	case err := <-served:
		served <- err // for the cleanup's receive
		t.Fatalf("Serve returned %v with no descriptor free", err)
	default:
	}
	free()
	if resp, _ := k.read(); resp.StatusCode != 200 {
		t.Fatal(resp.Status)
	}
}
