// The TCP socket under Serve (ARCHITECTURE "Server"), on package syscall
// and the runtime poller package os exposes: a nonblocking descriptor
// passed to os.NewFile is registered with the poller, so a read, write or
// accept that would block parks its goroutine instead of a thread.
// Package net would do the same, but it links runtime/cgo and, with it,
// libc; without it turbo-server is a static executable.

package httpd

import (
	"errors"
	"fmt"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// backlog is the listen queue asked for; the kernel clamps it to
// net.core.somaxconn, the queue package net would have asked for.
const backlog = 1<<16 - 1

// keepAlive is the idle time before the first keep-alive probe and the
// interval between probes, in seconds: package net's default. The probe
// count is the kernel's default, 9, which is net's too.
const keepAlive = 15

// Listener is a listening TCP socket on the runtime poller.
type Listener struct {
	f    *os.File
	rc   syscall.RawConn
	addr netip.AddrPort
}

// conn is an accepted TCP connection. Its *os.File is on the runtime
// poller, so Read, Write, SetReadDeadline and Close work as they do on a
// net.Conn, and Close unblocks a Read or Write in progress.
type conn struct {
	*os.File
	// peer is the client's address, for the log.
	peer netip.AddrPort
}

// Listen opens a TCP listener on addr, HOST:PORT. HOST is an IPv4
// address, a bracketed IPv6 address, localhost (127.0.0.1), or empty for
// every interface: IPv6 and IPv4 both where the host has IPv6, IPv4
// otherwise. PORT is a number from 0 to 65535; 0 picks a free port, which
// Addr reports. No other host name is taken: there is no resolver.
func Listen(addr string) (*Listener, error) {
	ap, err := listenAddr(addr)
	if err != nil {
		return nil, fmt.Errorf("httpd: listen %s: %w", addr, err)
	}
	fd, err := bindListen(ap)
	if ap.Addr() == netip.IPv6Unspecified() &&
		(errors.Is(err, syscall.EAFNOSUPPORT) || errors.Is(err, syscall.EADDRNOTAVAIL)) {
		// No IPv6 here: every interface is IPv4's.
		ap = netip.AddrPortFrom(netip.IPv4Unspecified(), ap.Port())
		fd, err = bindListen(ap)
	}
	if err != nil {
		return nil, fmt.Errorf("httpd: listen %s: %w", addr, err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("httpd: listen %s: %w", addr, os.NewSyscallError("getsockname", err))
	}
	f := os.NewFile(uintptr(fd), "tcp-listener")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("httpd: listen %s: %w", addr, err)
	}
	return &Listener{f: f, rc: rc, addr: addrPort(sa)}, nil
}

// listenAddr parses Listen's addr.
func listenAddr(addr string) (netip.AddrPort, error) {
	i := strings.LastIndexByte(addr, ':')
	if i < 0 {
		return netip.AddrPort{}, errors.New("no port: the address is HOST:PORT")
	}
	host, port := addr[:i], addr[i+1:]
	p, err := strconv.ParseUint(port, 10, 16)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("port %q is not a number from 0 to 65535", port)
	}
	var ip netip.Addr
	switch {
	case host == "":
		ip = netip.IPv6Unspecified()
	case host == "localhost":
		ip = netip.AddrFrom4([4]byte{127, 0, 0, 1})
	case strings.HasPrefix(host, "[") && strings.HasSuffix(host, "]"):
		ip, err = netip.ParseAddr(host[1 : len(host)-1])
	default:
		ip, err = netip.ParseAddr(host)
		if ip.Is6() {
			err = errors.New("unbracketed IPv6")
		}
	}
	if err != nil || ip.Zone() != "" {
		return netip.AddrPort{}, fmt.Errorf("host %q is not an IPv4 address, a bracketed IPv6 address without a zone, localhost or empty: no other name is resolved", host)
	}
	return netip.AddrPortFrom(ip, uint16(p)), nil
}

// bindListen opens a nonblocking TCP socket bound to ap and listening.
func bindListen(ap netip.AddrPort) (int, error) {
	family, sa := syscall.AF_INET6, syscall.Sockaddr(&syscall.SockaddrInet6{Port: int(ap.Port()), Addr: ap.Addr().As16()})
	if ap.Addr().Is4() {
		family, sa = syscall.AF_INET, &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: ap.Addr().As4()}
	}
	fd, err := syscall.Socket(family, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, syscall.IPPROTO_TCP)
	if err != nil {
		return -1, os.NewSyscallError("socket", err)
	}
	err = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
	if err == nil && family == syscall.AF_INET6 {
		// The wildcard takes IPv4 too, whatever net.ipv6.bindv6only says.
		err = syscall.SetsockoptInt(fd, syscall.IPPROTO_IPV6, syscall.IPV6_V6ONLY, 0)
	}
	if err != nil {
		err = os.NewSyscallError("setsockopt", err)
	} else if err = syscall.Bind(fd, sa); err != nil {
		err = os.NewSyscallError("bind", err)
	} else if err = syscall.Listen(fd, backlog); err != nil {
		err = os.NewSyscallError("listen", err)
	}
	if err != nil {
		syscall.Close(fd)
		return -1, err
	}
	return fd, nil
}

// Addr is the address the listener is bound to, its port filled in.
func (l *Listener) Addr() netip.AddrPort { return l.addr }

// Close closes the listener; an accept waiting on it returns os.ErrClosed.
func (l *Listener) Close() error { return l.f.Close() }

// accept waits on the poller for the next connection and sets it up as
// package net would: TCP_NODELAY, and keep-alive probes after keepAlive
// idle seconds. Its error is os.ErrClosed once the listener is closed.
// Any other error is the connection's, not the listener's, such as no
// descriptor free for it (EMFILE, ENFILE): it stays queued for a later
// accept.
func (l *Listener) accept() (*conn, error) {
	var (
		fd   int
		sa   syscall.Sockaddr
		aerr error
	)
	err := l.rc.Read(func(lfd uintptr) bool {
		for {
			fd, sa, aerr = syscall.Accept4(int(lfd), syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
			// A connection reset before it was accepted is gone: take
			// the next one, as package net does.
			if aerr != syscall.EINTR && aerr != syscall.ECONNABORTED {
				return aerr != syscall.EAGAIN
			}
		}
	})
	if err != nil {
		// The poller refuses a wait only on a closed listener.
		return nil, os.ErrClosed
	}
	if aerr != nil {
		return nil, os.NewSyscallError("accept4", aerr)
	}
	for _, o := range [...][3]int{ // level, option, value
		{syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
		{syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, keepAlive},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, keepAlive},
	} {
		if err := syscall.SetsockoptInt(fd, o[0], o[1], o[2]); err != nil {
			syscall.Close(fd)
			return nil, os.NewSyscallError("setsockopt", err)
		}
	}
	return &conn{File: os.NewFile(uintptr(fd), "tcp"), peer: addrPort(sa)}, nil
}

// closeWrite shuts the connection's writing side: the client reads EOF
// after what was written, while reads go on.
func (c *conn) closeWrite() error {
	rc, err := c.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) { serr = syscall.Shutdown(int(fd), syscall.SHUT_WR) }); err != nil {
		return err
	}
	return os.NewSyscallError("shutdown", serr)
}

// addrPort is a socket address as netip reads it, an IPv4-mapped IPv6
// address as IPv4.
func addrPort(sa syscall.Sockaddr) netip.AddrPort {
	switch sa := sa.(type) {
	case *syscall.SockaddrInet4:
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(sa.Port))
	case *syscall.SockaddrInet6:
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), uint16(sa.Port))
	}
	return netip.AddrPort{}
}
