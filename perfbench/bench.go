package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"pcomb"
	"pcomb/internal/obs"
	"pcomb/internal/server"
)

// Fixed settings shared by every workload (the server's defaults, spelled
// out so each run can print them).
const (
	flushOps      = 16
	flushDeadline = 500 * time.Microsecond
	queueCapacity = 1 << 20
	ioTimeout     = 120 * time.Second // no reply for this long fails the run
)

// bench is one run of one workload: its settings, the oracle state that
// outlives individual servers, and the failure tally.
type bench struct {
	w    *workload
	seed int64
	dir  string
	clk  clock
	opts pcomb.ServerOptions
	q    *queueOracle
	gens []*connGen

	attempted int64
	failed    int64
	errs      []string
}

func newBench(w *workload, seed int64, dir string) *bench {
	return &bench{w: w, seed: seed, dir: dir, clk: clock{base: time.Now()}}
}

func (b *bench) fail(msg string) {
	b.failed++
	if len(b.errs) < 10 {
		b.errs = append(b.errs, msg)
	}
}

func (b *bench) storeOptions(path string) pcomb.ServerOptions {
	o := pcomb.ServerOptions{
		Path:          path,
		FlushOps:      flushOps,
		Epoch:         b.w.epoch,
		MapCapacity:   b.w.mapCapacity,
		QueueCapacity: queueCapacity,
		Sync:          pcomb.SyncNone,
	}
	if b.w.epoch {
		o.EpochInterval = epochCadence
	}
	return o
}

func (b *bench) newGens() ([]*connGen, *queueOracle) {
	q := newQueueOracle(b.seed)
	gens := make([]*connGen, numConns)
	for i := range gens {
		gens[i] = newConnGen(b.w, b.seed, i, q)
	}
	return gens, q
}

// session is one server on a store plus its client connections.
type session struct {
	store   *pcomb.ServerStore // nil on the no-op store rung
	srv     *server.Server
	ln      net.Listener
	served  chan error
	clients []*client
}

// serve starts a server on st (through the trace seams when tr is set) and
// dials one client per generator, one at a time, so connection i is bound
// to store thread id i.
func (b *bench) serve(st server.Store, tr *tracer, gens []*connGen, check bool) (*session, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var l net.Listener = ln
	if tr != nil {
		st = &tracedStore{Store: st, t: tr}
		l = &tracedListener{Listener: ln, t: tr}
	}
	s := &session{
		srv:    server.New(st, server.Options{FlushOps: flushOps, FlushDeadline: flushDeadline}),
		ln:     ln,
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(l) }()
	for _, g := range gens {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.stop(s)
			return nil, err
		}
		if err := c.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
			c.Close()
			b.stop(s)
			return nil, err
		}
		cl := newClient(c, g, b.clk, check)
		s.clients = append(s.clients, cl)
		if err := cl.handshake(); err != nil {
			b.stop(s)
			return nil, fmt.Errorf("handshake: %w", err)
		}
	}
	return s, nil
}

// stop closes the server (it settles every window and joins its
// connections), then the clients, and folds the clients' tallies into the
// run's.
func (b *bench) stop(s *session) error {
	s.srv.Close()
	s.ln.Close()
	for _, c := range s.clients {
		c.rw.Close()
		b.attempted += c.s.sent
		b.failed += c.r.failed
		for _, e := range c.r.errs {
			if len(b.errs) < 10 {
				b.errs = append(b.errs, e)
			}
		}
	}
	return <-s.served
}

// setup opens a fresh store file, serves it, and preloads it: every owned
// key once (kv workloads) or the queue prefill, then a WAIT per connection.
func (b *bench) setup(i int) (*session, error) {
	b.opts = b.storeOptions(filepath.Join(b.dir, fmt.Sprintf("store-%d.heap", i)))
	st, _, err := pcomb.OpenServerStore(b.opts)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	b.gens, b.q = b.newGens()
	s, err := b.serve(st, nil, b.gens, true)
	if err != nil {
		st.Close()
		return nil, err
	}
	s.store = st
	var wg sync.WaitGroup
	for _, c := range s.clients {
		n := b.w.keysPerConn
		if b.w.queue && c.g.id == 0 {
			n = queuePrefill
		}
		wg.Add(1)
		go func(c *client, n int) {
			defer wg.Done()
			c.preload(n)
		}(c, n)
	}
	wg.Wait()
	return s, nil
}

// sent counts every command the session's clients sent.
func (s *session) sent() int64 {
	var n int64
	for _, c := range s.clients {
		n += c.s.sent
	}
	return n
}

// teardown stops the session and closes its store cleanly.
func (b *bench) teardown(s *session) error {
	if err := b.stop(s); err != nil {
		return err
	}
	return s.store.Close()
}

// phase is one measured window's raw results.
type phase struct {
	secs       float64
	replies    int64
	lat        []uint32
	wait       []uint32
	late       []uint32
	a, z       snapshot
	lags       []uint32 // open epochs minus closed, sampled each ms (traced epoch runs)
	pops, hits int64
	batch      *obs.Hist
}

func (p *phase) perOp(x float64) float64 { return ratio(x, float64(p.replies)) }

func (p *phase) opsPerSec() float64 { return float64(p.replies) / p.secs }

// measure runs the workload on s for warm then dur, measuring dur. With
// sampleEpochs the calling goroutine samples the queue's epoch lag each
// millisecond of the window.
func (b *bench) measure(s *session, warm, dur time.Duration, tr *tracer, sampleEpochs bool) *phase {
	start := b.clk.now()
	w := window{from: start + int64(warm), to: start + int64(warm+dur)}
	if tr != nil {
		tr.setWindow(w)
	}
	var pops0, hits0 int64
	for _, c := range s.clients {
		pops0 += c.g.pops
		hits0 += c.g.hits
	}
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			if b.w.rate > 0 {
				c.openLoop(w, b.w.rate/numConns)
			} else {
				c.closedLoop(w, 0)
			}
		}(c)
	}
	var closed func() uint64
	if s.store != nil && b.w.epoch {
		closed = s.store.Queue().EpochClosed
	}
	p := &phase{secs: dur.Seconds()}
	time.Sleep(time.Duration(w.from - b.clk.now()))
	p.a = takeSnapshot(closed)
	if sampleEpochs && closed != nil {
		q := s.store.Queue()
		for b.clk.now() < w.to {
			p.lags = append(p.lags, uint32(q.EpochNow()-q.EpochClosed()))
			time.Sleep(time.Millisecond)
		}
	} else {
		time.Sleep(time.Duration(w.to - b.clk.now()))
	}
	p.z = takeSnapshot(closed)
	wg.Wait()
	for _, c := range s.clients {
		p.replies += c.r.replies
		p.lat = append(p.lat, c.r.lat...)
		p.wait = append(p.wait, c.r.wait...)
		p.late = append(p.late, c.s.late...)
		c.r.replies, c.r.lat, c.r.wait, c.s.late = 0, nil, nil, nil
		p.pops += c.g.pops
		p.hits += c.g.hits
	}
	p.pops -= pops0
	p.hits -= hits0
	p.batch = s.srv.BatchStats()
	return p
}

// restarts reopens the cleanly stopped store n times, timing each
// OpenServerStore (which runs Recover), and audits the first reopen.
func (b *bench) restarts(n int) ([]float64, error) {
	// Write the stopped store's dirty pages back first, so the kernel's
	// background writeback does not land inside the timed reopens.
	f, err := os.OpenFile(b.opts.Path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	err = f.Sync()
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("sync store file: %w", err)
	}
	var ds []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		st, restart, err := pcomb.OpenServerStore(b.opts)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		ds = append(ds, time.Since(t).Seconds())
		if !restart {
			b.fail("reopen created a fresh store")
		}
		if i == 0 {
			b.audit(st)
		}
		if err := st.Close(); err != nil {
			return nil, fmt.Errorf("close reopened store: %w", err)
		}
		debug.FreeOSMemory() // each reopen starts from the same state, as a fresh process would
	}
	return ds, nil
}

// audit checks the reopened store against the oracle: every key holds its
// last acknowledged value, and the queue conserves values (pushed = popped
// + left), in FIFO order per producer.
func (b *bench) audit(st *pcomb.ServerStore) {
	if !b.w.queue {
		for _, g := range b.gens {
			for k, hk := range g.hk {
				b.attempted++
				if v, ok := st.Map().Get(0, hk); !ok || v != g.vals[k] {
					b.fail(fmt.Sprintf("audit: conn %d key %d reads %d (present %v), want %d", g.id, k, v, ok, g.vals[k]))
				}
			}
		}
		return
	}
	var seen [numProducers][]bool
	for p := range seen {
		seen[p] = make([]bool, b.q.sent[p].Load())
		b.attempted += int64(len(seen[p]))
	}
	mark := func(v uint64, where string) (int, uint64, bool) {
		p := int(v >> seqBits)
		if p >= numProducers || v&seqMask < b.q.base[p] || v&seqMask-b.q.base[p] >= uint64(len(seen[p])) {
			b.fail(fmt.Sprintf("audit: %s value %#x was never pushed", where, v))
			return 0, 0, false
		}
		seq := v&seqMask - b.q.base[p]
		if seen[p][seq] {
			b.fail(fmt.Sprintf("audit: %s value %#x seen twice", where, v))
		}
		seen[p][seq] = true
		return p, seq, true
	}
	for _, g := range b.gens {
		for _, v := range g.popped {
			mark(v, "popped")
		}
	}
	var next [numProducers]uint64
	for _, v := range st.Queue().Snapshot() {
		if p, seq, ok := mark(v, "queued"); ok {
			if seq < next[p] {
				b.fail(fmt.Sprintf("audit: queued producer %d seq %d after seq %d", p, seq, next[p]-1))
			}
			next[p] = seq + 1
		}
	}
	for p := range seen {
		for seq, ok := range seen[p] {
			if !ok {
				b.fail(fmt.Sprintf("audit: producer %d seq %d pushed but neither popped nor queued", p, seq))
			}
		}
	}
}
