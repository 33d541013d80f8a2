//go:build linux

package lbproxy

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
)

// Zero-copy relay: on Linux, relay bytes between two TCP sockets through a
// kernel pipe with splice(2), so payloads never cross into userspace. The
// estimator still gets its per-arrival timestamps — each readiness event on
// the source socket is one observation — it just stops paying a 32 KiB
// memcpy for them.
//
// The state machine per chunk is:
//
//	park on src readability (runtime poller, honors the idle deadline)
//	  → splice src→pipe   (EAGAIN: release pipe, re-park)
//	  → onChunk()         (the estimator's arrival timestamp)
//	  → splice pipe→dst until the pipe is drained (parking on dst
//	    writability as needed)
//
// A pipe is checked out of a sync.Pool lazily inside the read callback and
// returned before every park, so a connection that sits idle — the common
// state for 100k-connection fan-in — pins zero pipe buffers. The pipe is
// returned to the pool only when fully drained; a teardown mid-drain
// destroys it instead, because its contents are unrecoverable.
//
// The first splice(2) failure with ENOSYS/EINVAL/EPERM (container seccomp
// filters, exotic socket types) flips a process-wide flag and every relay
// falls back to the pooled-buffer copy path. The read side consumes
// nothing in that case, so the fallback starts from a clean stream.

const (
	// spliceChunk is the per-call byte budget. The kernel moves at most
	// the pipe's free space; asking for more costs nothing.
	spliceChunk = 1 << 20
	// pipeCapacity is requested via F_SETPIPE_SZ so one splice can move
	// multiples of the default 64 KiB pipe. Best effort: unprivileged
	// processes are capped by /proc/sys/fs/pipe-max-size.
	pipeCapacity = 256 << 10
	fSetPipeSz   = 1031 // F_SETPIPE_SZ (not exported by package syscall)

	// SPLICE_F_MOVE | SPLICE_F_NONBLOCK (package syscall exports the
	// splice syscall but not its flag constants).
	spliceFlags = 0x1 | 0x2
)

// spliceBroken latches once splice(2) proves unusable in this process;
// every subsequent relay takes the copy path without retrying the syscall.
var spliceBroken atomic.Bool

// spliceAvailable reports whether the zero-copy path is worth attempting.
func spliceAvailable() bool { return !spliceBroken.Load() }

// spipe is a pooled kernel pipe pair. The finalizer closes the fds when
// the GC drops a pooled entry (sync.Pool sheds under memory pressure), so
// pipe fds can never leak.
type spipe struct {
	r, w int
}

// pipesCreated counts pipe allocations; the perf hygiene gate asserts it
// stays flat across steady-state relay cycles.
var pipesCreated atomic.Uint64

var pipePool = sync.Pool{
	New: func() any {
		var fds [2]int
		if err := syscall.Pipe2(fds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
			return (*spipe)(nil)
		}
		// Enlarge best-effort; the default 64 KiB pipe still works.
		_, _, _ = syscall.Syscall(syscall.SYS_FCNTL, uintptr(fds[0]), fSetPipeSz, uintptr(pipeCapacity))
		pipesCreated.Add(1)
		sp := &spipe{r: fds[0], w: fds[1]}
		runtime.SetFinalizer(sp, (*spipe).destroy)
		return sp
	},
}

func getPipe() *spipe {
	sp, _ := pipePool.Get().(*spipe)
	return sp // nil if Pipe2 failed (fd exhaustion): caller falls back
}

func putPipe(sp *spipe) { pipePool.Put(sp) }

// destroy closes the pipe fds; used for teardown with undrained bytes and
// as the GC finalizer. Idempotent via the fd sentinel.
func (sp *spipe) destroy() {
	if sp == nil || sp.r < 0 {
		return
	}
	runtime.SetFinalizer(sp, nil)
	_ = syscall.Close(sp.r)
	_ = syscall.Close(sp.w)
	sp.r, sp.w = -1, -1
}

// pipeCycle exercises one pool checkout/checkin for the perf hygiene gate.
func pipeCycle() bool {
	sp := getPipe()
	if sp == nil {
		return false
	}
	putPipe(sp)
	return true
}

// spliceFallbackErrno reports whether an errno from the first-ever splice
// on a stream means "unsupported here" rather than "stream failed".
func spliceFallbackErrno(err error) bool {
	return err == syscall.EINVAL || err == syscall.ENOSYS ||
		err == syscall.EPERM || err == syscall.EOPNOTSUPP
}

// rawConner matches *net.TCPConn's raw-access surface.
type rawConner interface {
	SyscallConn() (syscall.RawConn, error)
}

// spliceStream relays src→dst through a pooled pipe until EOF or error.
//
// arm re-arms src's read deadline before each park; onChunk (may be nil)
// fires once per chunk arrival, before the chunk is forwarded — this is
// where the request direction timestamps arrivals for the estimator.
//
// Returns handled=false (with nothing consumed) when splice cannot be
// used on this pair, in which case the caller must run the copy loop.
// Otherwise err is io.EOF for a clean src EOF or the failing error, and
// writeSide tells which end failed (true: dst).
func (p *Proxy) spliceStream(dst, src rawConner, arm func(), onChunk func()) (handled bool, err error, writeSide bool) {
	if !spliceAvailable() {
		return false, nil, false
	}
	srcRaw, serr := src.SyscallConn()
	if serr != nil {
		return false, nil, false
	}
	dstRaw, derr := dst.SyscallConn()
	if derr != nil {
		return false, nil, false
	}

	var (
		pp     *spipe
		inPipe int  // bytes sitting in the pipe, not yet written to dst
		moved  bool // any byte ever spliced on this stream
	)
	defer func() {
		if pp == nil {
			return
		}
		if inPipe == 0 {
			putPipe(pp)
		} else {
			pp.destroy() // undrained teardown: contents unrecoverable
		}
	}()

	for {
		arm()
		var (
			rn     int
			rerrno error
		)
		waitErr := srcRaw.Read(func(fd uintptr) bool {
			if pp == nil {
				if pp = getPipe(); pp == nil {
					rerrno = syscall.EMFILE
					return true
				}
			}
			for {
				n, e := syscall.Splice(int(fd), nil, pp.w, nil, spliceChunk, spliceFlags)
				p.sysSplices.Add(1)
				if e == syscall.EINTR {
					continue
				}
				if e == syscall.EAGAIN {
					// Socket has no bytes ready. Hand the pipe back before
					// parking so idle connections pin no pipe buffers.
					putPipe(pp)
					pp = nil
					return false
				}
				rn, rerrno = int(n), e
				return true
			}
		})
		if waitErr != nil {
			return true, waitErr, false // deadline expiry or closed conn
		}
		if rerrno != nil {
			if !moved && spliceFallbackErrno(rerrno) {
				// First splice in this stream says "not here" — nothing was
				// consumed, so the copy loop can take over. Latch the flag
				// only for errnos that condemn the whole process, not a
				// single odd socket.
				if rerrno == syscall.ENOSYS || rerrno == syscall.EPERM {
					spliceBroken.Store(true)
				}
				return false, nil, false
			}
			return true, rerrno, false
		}
		if rn == 0 {
			return true, io.EOF, false
		}
		moved = true
		if onChunk != nil {
			onChunk()
		}

		inPipe = rn
		for inPipe > 0 {
			var (
				wn     int
				werrno error
			)
			waitErr := dstRaw.Write(func(fd uintptr) bool {
				for {
					n, e := syscall.Splice(pp.r, nil, int(fd), nil, inPipe, spliceFlags)
					p.sysSplices.Add(1)
					if e == syscall.EINTR {
						continue
					}
					if e == syscall.EAGAIN {
						return false // park on dst writability
					}
					wn, werrno = int(n), e
					return true
				}
			})
			if waitErr != nil {
				return true, waitErr, true
			}
			if werrno != nil {
				return true, werrno, true
			}
			if wn <= 0 {
				return true, io.ErrUnexpectedEOF, true
			}
			inPipe -= wn
		}
	}
}
