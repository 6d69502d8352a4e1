package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"sync/atomic"

	"pcomb/internal/server"
)

// The traced run times every call across two seams the server already has:
// the server.Store it is built on and the net.Listener it serves. Each
// connection goroutine is the only caller of its conn's Read/Write and of
// the store for its thread id, so per-connection state needs no locks; the
// run reads it after Server.Close has joined those goroutines.

// Span kinds, in Chrome trace order.
const (
	spRead uint8 = iota
	spWrite
	spBusy
	spStage
	spFlush
	spBarrier
)

var spanNames = [...]string{"tcp.read", "tcp.write", "server.busy", "store.stage", "store.flush", "store.barrier"}

// maxSpans bounds the spans kept per connection for the trace file; the
// metrics are accumulated over every span regardless.
const maxSpans = 1 << 15

type span struct {
	start, end int64
	win        uint32
	kind       uint8
}

// connTrace is one connection's spans and sums. A window is the work
// between two socket writes: every span recorded until a Write shares that
// Write's window id.
type connTrace struct {
	tr  *tracer
	win uint32

	lastReadEnd int64  // 0 until the first Read returns
	gapInner    int64  // store + write ns since the last Read returned
	gapWin      uint32 // window id when the last Read returned

	self    int64 // server time between Reads, minus the store and socket spans in it
	stageNs int64
	stageN  int64
	storeNs int64
	reads   int64
	writes  int64
	flush   []uint32
	barrier []uint32
	writeNs []uint32
	spans   []span
}

func (ct *connTrace) record(kind uint8, s, e int64, win uint32) {
	if len(ct.spans) < maxSpans {
		ct.spans = append(ct.spans, span{start: s, end: e, win: win, kind: kind})
	}
}

func (ct *connTrace) onRead(s, e int64) {
	w := ct.tr.window()
	if ct.lastReadEnd > 0 && w.has(ct.lastReadEnd) {
		ct.self += s - ct.lastReadEnd - ct.gapInner
		ct.record(spBusy, ct.lastReadEnd, s, ct.gapWin)
	}
	if w.has(s) {
		ct.reads++
		ct.record(spRead, s, e, ct.win)
	}
	ct.lastReadEnd, ct.gapInner, ct.gapWin = e, 0, ct.win
}

func (ct *connTrace) onWrite(s, e int64) {
	ct.gapInner += e - s
	if ct.tr.window().has(s) {
		ct.writes++
		ct.writeNs = append(ct.writeNs, ns32(e-s))
		ct.record(spWrite, s, e, ct.win)
	}
	ct.win++
}

func (ct *connTrace) onStore(kind uint8, s, e int64) {
	ct.gapInner += e - s
	if !ct.tr.window().has(s) {
		return
	}
	ct.storeNs += e - s
	switch kind {
	case spStage:
		ct.stageNs += e - s
		ct.stageN++
	case spFlush:
		ct.flush = append(ct.flush, ns32(e-s))
	case spBarrier:
		ct.barrier = append(ct.barrier, ns32(e-s))
	}
	ct.record(kind, s, e, ct.win)
}

// tracer owns the per-connection traces of one traced server. Connections
// are indexed by accept order, which equals their store thread id because
// the run dials one connection at a time on a fresh server; the handshake
// probe checks that.
type tracer struct {
	clk      clock
	from, to atomic.Int64
	conns    [numConns]*connTrace
	accepted int
	probes   [numConns]uint64
	probeTid [numConns]atomic.Int64
}

func newTracer(clk clock) *tracer {
	t := &tracer{clk: clk}
	t.from.Store(1<<63 - 1)
	t.to.Store(1<<63 - 1)
	for i := range t.conns {
		t.conns[i] = &connTrace{tr: t}
		t.probes[i] = server.HashKey(probeKey(i))
		t.probeTid[i].Store(-1)
	}
	return t
}

func (t *tracer) setWindow(w window) {
	t.to.Store(w.to)
	t.from.Store(w.from)
}

func (t *tracer) window() window { return window{t.from.Load(), t.to.Load()} }

// checkAttribution reports whether every connection's handshake probe
// reached the store on the thread id its trace is filed under.
func (t *tracer) checkAttribution() error {
	for i := range t.probeTid {
		if got := t.probeTid[i].Load(); got != int64(i) {
			return fmt.Errorf("trace attribution: connection %d served by thread %d", i, got)
		}
	}
	return nil
}

// ---- net seam ----

type tracedListener struct {
	net.Listener
	t *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if l.t.accepted >= numConns {
		return c, nil // refused or extra: served untraced
	}
	ct := l.t.conns[l.t.accepted]
	l.t.accepted++
	return &tracedConn{Conn: c, ct: ct}, nil
}

type tracedConn struct {
	net.Conn
	ct *connTrace
}

func (c *tracedConn) Read(p []byte) (int, error) {
	s := c.ct.tr.clk.now()
	n, err := c.Conn.Read(p)
	c.ct.onRead(s, c.ct.tr.clk.now())
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	s := c.ct.tr.clk.now()
	n, err := c.Conn.Write(p)
	c.ct.onWrite(s, c.ct.tr.clk.now())
	return n, err
}

// ---- store seam ----

type tracedStore struct {
	server.Store
	t *tracer
}

func (s *tracedStore) conn(tid int) *connTrace {
	if tid < numConns {
		return s.t.conns[tid]
	}
	return &connTrace{tr: s.t} // an unexpected thread: timed, then dropped
}

func (s *tracedStore) stage(tid int, start int64, r server.Result) server.Result {
	s.conn(tid).onStore(spStage, start, s.t.clk.now())
	return r
}

func (s *tracedStore) Get(tid int, key uint64) server.Result {
	for i, p := range s.t.probes {
		if key == p {
			s.t.probeTid[i].Store(int64(tid))
		}
	}
	start := s.t.clk.now()
	return s.stage(tid, start, s.Store.Get(tid, key))
}

func (s *tracedStore) Set(tid int, key, val uint64) server.Result {
	start := s.t.clk.now()
	return s.stage(tid, start, s.Store.Set(tid, key, val))
}

func (s *tracedStore) IncrBy(tid int, key, delta uint64) server.Result {
	start := s.t.clk.now()
	return s.stage(tid, start, s.Store.IncrBy(tid, key, delta))
}

func (s *tracedStore) LPush(tid int, val uint64) server.Result {
	start := s.t.clk.now()
	return s.stage(tid, start, s.Store.LPush(tid, val))
}

func (s *tracedStore) RPop(tid int) server.Result {
	start := s.t.clk.now()
	return s.stage(tid, start, s.Store.RPop(tid))
}

func (s *tracedStore) Flush(tid int) {
	start := s.t.clk.now()
	s.Store.Flush(tid)
	s.conn(tid).onStore(spFlush, start, s.t.clk.now())
}

func (s *tracedStore) Barrier(tid int) {
	start := s.t.clk.now()
	s.Store.Barrier(tid)
	s.conn(tid).onStore(spBarrier, start, s.t.clk.now())
}

// ---- export ----

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the kept spans in the Chrome trace-event format
// (loadable in Perfetto): one track per connection, one complete event per
// span, with the connection window id in args.
func (t *tracer) writeChrome(path, name string) error {
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench " + name}}}
	for i, ct := range t.conns {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: i, Args: map[string]any{"name": fmt.Sprintf("conn %d", i)}})
		for _, s := range ct.spans {
			n := spanNames[s.kind]
			cat, _, _ := strings.Cut(n, ".")
			events = append(events, chromeEvent{
				Name: n,
				Cat:  cat,
				Ph:   "X",
				Ts:   float64(s.start) / 1e3,
				Dur:  max(float64(s.end-s.start)/1e3, 0.001),
				Pid:  1,
				Tid:  i,
				Args: map[string]any{"window": s.win},
			})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
