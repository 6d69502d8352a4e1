package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// clock stamps events in nanoseconds since the run's time base (monotonic).
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// window is the measured interval [from, to) on the run's clock.
type window struct{ from, to int64 }

func (w window) has(t int64) bool { return t >= w.from && t < w.to }

// sendStats is written only by the goroutine that sends.
type sendStats struct {
	sent int64
	late []uint32 // ns from scheduled to actual send, sends in the window
}

// recvStats is written only by the goroutine that reads replies.
type recvStats struct {
	replies int64    // replies received inside the window
	lat     []uint32 // ns per command sent in the window (WAIT excluded)
	wait    []uint32 // ns per WAIT sent in the window
	failed  int64
	errs    []string
}

func (r *recvStats) fail(msg string) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, msg)
	}
}

// client is one benchmark connection: a buffered RESP writer and reader,
// the connection's generator and oracle, and its measurements. With check
// off (the no-op store rung) replies are decoded but not judged.
type client struct {
	rw    io.ReadWriteCloser
	bw    *bufio.Writer
	br    *bufio.Reader
	g     *connGen
	clk   clock
	check bool
	s     sendStats
	r     recvStats
}

func newClient(rw io.ReadWriteCloser, g *connGen, clk clock, check bool) *client {
	return &client{
		rw:    rw,
		bw:    bufio.NewWriterSize(rw, 16<<10),
		br:    bufio.NewReaderSize(rw, 16<<10),
		g:     g,
		clk:   clk,
		check: check,
	}
}

func ns32(d int64) uint32 {
	if d < 0 {
		return 0
	}
	if d > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(d)
}

// recv reads one reply, judges it against e, and records its latency from
// e.t when e.t falls inside w; replies received inside w count toward
// throughput.
func (c *client) recv(e expect, w window) error {
	r, err := readReply(c.br)
	if err != nil {
		return err
	}
	now := c.clk.now()
	if w.has(now) {
		c.r.replies++
	}
	if c.check {
		if msg := c.g.check(e, r); msg != "" {
			c.r.fail(msg)
		}
	} else if r.typ == '-' {
		c.r.fail(fmt.Sprintf("conn %d: error reply %q", c.g.id, r.msg))
	}
	if w.has(e.t) {
		if e.op == opWait {
			c.r.wait = append(c.r.wait, ns32(now-e.t))
		} else {
			c.r.lat = append(c.r.lat, ns32(now-e.t))
		}
	}
	return nil
}

// lost records n commands whose replies never arrived.
func (c *client) lost(n int, err error) error {
	c.r.failed += int64(n)
	c.r.fail(fmt.Sprintf("conn %d: %d replies lost: %v", c.g.id, n, err))
	return err
}

// roundTrip writes cmds and reads their replies; setup and handshakes use
// it outside any measured window.
func (c *client) roundTrip(cmds []cmd, exps []expect) error {
	for _, x := range cmds {
		c.g.write(c.bw, x)
	}
	c.s.sent += int64(len(cmds))
	if err := c.bw.Flush(); err != nil {
		return c.lost(len(cmds), err)
	}
	for i, e := range exps {
		if err := c.recv(e, window{}); err != nil {
			return c.lost(len(exps)-i, err)
		}
	}
	return nil
}

// handshake proves the connection is being served (and so bound to its
// store thread id) before the next connection dials.
func (c *client) handshake() error {
	return c.roundTrip([]cmd{{op: opProbe}}, []expect{{op: opProbe}})
}

// preload runs the connection's setup commands in bursts of 32, then a
// WAIT so the preloaded state is durable.
func (c *client) preload(n int) error {
	var cmds []cmd
	var exps []expect
	for i := 0; i < n; i++ {
		x, e := c.g.preload(i)
		cmds, exps = append(cmds, x), append(exps, e)
		if len(cmds) == 32 || i == n-1 {
			if err := c.roundTrip(cmds, exps); err != nil {
				return err
			}
			cmds, exps = cmds[:0], exps[:0]
		}
	}
	return c.roundTrip([]cmd{{op: opWait}}, []expect{{op: opWait}})
}

// closedLoop writes a burst, reads all of its replies, and repeats until the
// window ends (or for maxBursts bursts when maxBursts > 0). Every waitsEv-th
// burst ends with a WAIT. Every command of a burst is timed from the
// burst's write. Lateness is the time from the previous burst's last reply
// to this burst's write: the generator's own delay.
func (c *client) closedLoop(w window, maxBursts int) error {
	n := c.g.w.burst
	if c.g.w.queue {
		n *= 2
	}
	exps := make([]expect, n+1)
	ready := c.clk.now()
	for b := 0; maxBursts == 0 || b < maxBursts; b++ {
		if maxBursts == 0 && ready >= w.to {
			return nil
		}
		m := n
		for i := 0; i < n; i++ {
			var x cmd
			x, exps[i] = c.g.draw(i)
			c.g.write(c.bw, x)
		}
		if ev := c.g.w.waitsEv; ev > 0 && (b+1)%ev == 0 {
			c.g.write(c.bw, cmd{op: opWait})
			exps[n] = expect{op: opWait}
			m++
		}
		t := c.clk.now()
		if err := c.bw.Flush(); err != nil {
			return c.lost(m, err)
		}
		c.s.sent += int64(m)
		if w.has(t) {
			c.s.late = append(c.s.late, ns32(t-ready))
		}
		for i := range exps[:m] {
			exps[i].t = t
			if err := c.recv(exps[i], w); err != nil {
				return c.lost(m-i, err)
			}
		}
		ready = c.clk.now()
	}
	return nil
}

// openLoop sends the connection's share of a Poisson arrival stream at
// rate commands/s until the window ends, then waits for every reply. Each
// command is timed from its scheduled send, so a stall also delays the
// commands queued behind it. A writer goroutine paces the sends, a reader
// goroutine consumes the replies.
func (c *client) openLoop(w window, rate float64) error {
	// Outstanding commands: a backlog beyond this blocks the pacer, which
	// then shows as lateness.
	exps := make(chan expect, 1<<16)
	rerr := make(chan error, 1)
	go func() {
		var err error
		for e := range exps {
			if err != nil {
				c.r.failed++
				continue
			}
			if err = c.recv(e, w); err != nil {
				c.lost(1, err)
			}
		}
		rerr <- err
	}()
	werr := c.pace(exps, w, rate)
	close(exps)
	if err := <-rerr; err != nil {
		return err
	}
	return werr
}

// pace is openLoop's writer. It sleeps until the next scheduled send and
// then writes every command that has come due in one flush; it never spins.
func (c *client) pace(exps chan<- expect, w window, rate float64) error {
	sl, err := newSleeper()
	if err != nil {
		return err
	}
	defer sl.close()
	mean := 1e9 / rate
	next := c.clk.now()
	var due []int64
	for next < w.to {
		now := c.clk.now()
		due = due[:0]
		for next <= now && next < w.to {
			x, e := c.g.draw(0)
			c.g.write(c.bw, x)
			e.t = next
			exps <- e
			due = append(due, next)
			next += int64(c.g.rng.ExpFloat64() * mean)
		}
		if len(due) > 0 {
			if err := c.bw.Flush(); err != nil {
				return err
			}
			sent := c.clk.now()
			c.s.sent += int64(len(due))
			for _, t := range due {
				if w.has(t) {
					c.s.late = append(c.s.late, ns32(sent-t))
				}
			}
		}
		if err := sl.sleep(time.Duration(next - c.clk.now())); err != nil {
			return err
		}
	}
	return nil
}

// sleeper parks a goroutine for a precise interval by reading a Linux
// timerfd through the runtime's poller. Runtime timers can fire up to a
// millisecond late, which would bunch the arrivals into millisecond bursts;
// nanosleep is precise but holds a scheduler slot while it sleeps.
type sleeper struct {
	fd  uintptr // kept apart: os.File.Fd would switch the file to blocking reads
	f   *os.File
	buf [8]byte
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

func (s *sleeper) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	its := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))} // interval, value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := s.f.Read(s.buf[:])
	return err
}

func (s *sleeper) close() error { return s.f.Close() }
