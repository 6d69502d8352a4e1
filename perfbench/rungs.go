package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"pcomb"
	"pcomb/internal/server"
)

// The isolated rungs of the serving-path ladder, each on the workload's
// own generated commands: L0 the RESP codec alone, L1 the store alone, L2
// sockets and server over a no-op store, L4 the load generator alone.

// burstShape is the workload's closed-loop burst; the open-loop workload
// is measured in bursts of 32 of its own mix.
func (b *bench) burstShape() *workload {
	w := *b.w
	if w.burst == 0 {
		w.burst = 32
	}
	return &w
}

// rungDecode (L0) times server.ReadCommand over the workload's encoded
// command stream and counts its heap allocations.
func (b *bench) rungDecode(dur time.Duration) (nsPerCmd, allocsPerCmd float64, err error) {
	w := b.burstShape()
	g := newConnGen(w, b.seed, 0, newQueueOracle(b.seed))
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	n := w.burst
	if w.queue {
		n *= 2
	}
	for i := 0; i < 1<<15; i++ {
		x, _ := g.draw(i % n)
		g.write(bw, x)
	}
	bw.Flush()
	data := buf.Bytes()

	objs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(objs)
	a0 := objs[0].Value.Uint64()
	br := bufio.NewReader(nil)
	var cmds int64
	start := time.Now()
	for time.Since(start) < dur {
		br.Reset(bytes.NewReader(data))
		for {
			_, err := server.ReadCommand(br)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return 0, 0, fmt.Errorf("decode rung: %w", err)
			}
			cmds++
		}
	}
	el := time.Since(start)
	metrics.Read(objs)
	return float64(el.Nanoseconds()) / float64(cmds), float64(objs[0].Value.Uint64()-a0) / float64(cmds), nil
}

// storeResult turns a store result into the reply the server would send,
// so the L1 rung is judged by the same oracle as the wire.
func storeResult(op byte, v uint64) reply {
	switch op {
	case opSet:
		return reply{typ: '+', ok: true}
	case opIncr:
		return reply{typ: ':', n: v}
	case opLPush, opWait:
		return reply{typ: ':', n: 1}
	}
	return reply{typ: '$', n: v, null: v == server.NotFound}
}

func stageOp(st server.Store, tid int, g *connGen, x cmd) server.Result {
	switch x.op {
	case opGet:
		return st.Get(tid, g.hk[x.key])
	case opSet:
		return st.Set(tid, g.hk[x.key], x.n)
	case opIncr:
		return st.IncrBy(tid, g.hk[x.key], x.n)
	case opLPush:
		return st.LPush(tid, x.n)
	case opRPop:
		return st.RPop(tid)
	}
	return server.Result{}
}

// storeDriver issues one connection's ops straight to the store, staging
// them in windows of at most flushOps and settling a window before a WAIT
// or a queue class switch, as the server's connection loop does. Every
// result is judged by the same oracle as the wire replies.
type storeDriver struct {
	st   server.Store
	tid  int
	g    *connGen
	res  []server.Result
	exps []expect
	ops  int64
	errs []string
}

func (d *storeDriver) do(x cmd, e expect) {
	if x.op == opWait {
		d.settle()
		d.st.Barrier(d.tid)
		d.ops++
		return
	}
	if c := d.st.PendingQueueClass(d.tid); (x.op == opLPush && c == 2) || (x.op == opRPop && c == 1) {
		d.settle()
	}
	d.res = append(d.res, stageOp(d.st, d.tid, d.g, x))
	d.exps = append(d.exps, e)
	if len(d.res) >= flushOps {
		d.settle()
	}
}

func (d *storeDriver) settle() {
	d.st.Flush(d.tid)
	for i, r := range d.res {
		if msg := d.g.check(d.exps[i], storeResult(d.exps[i].op, r.Value())); msg != "" && len(d.errs) < 5 {
			d.errs = append(d.errs, "store rung: "+msg)
		}
	}
	d.ops += int64(len(d.res))
	d.res, d.exps = d.res[:0], d.exps[:0]
}

// rungStore (L1) preloads a fresh ServerStore directly, then drives it
// from one goroutine per connection with the workload's op mix and bursts
// for dur, without sockets or the RESP codec.
func (b *bench) rungStore(dur time.Duration) (float64, error) {
	path := filepath.Join(b.dir, "iso.heap")
	st, _, err := pcomb.OpenServerStore(b.storeOptions(path))
	if err != nil {
		return 0, fmt.Errorf("store rung: %w", err)
	}
	defer os.Remove(path)
	w := b.burstShape()
	q := newQueueOracle(b.seed)
	ds := make([]*storeDriver, numConns)
	for i := range ds {
		d := &storeDriver{st: st, tid: i, g: newConnGen(w, b.seed, i, q)}
		n := w.keysPerConn
		if w.queue {
			n = 0
			if i == 0 {
				n = queuePrefill
			}
		}
		for k := 0; k < n; k++ {
			d.do(d.g.preload(k))
		}
		d.do(cmd{op: opWait}, expect{op: opWait})
		d.ops = 0
		ds[i] = d
	}
	burst := w.burst
	if w.queue {
		burst *= 2
	}
	until := time.Now().Add(dur)
	start := time.Now()
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func(d *storeDriver) {
			defer wg.Done()
			for n := 1; time.Now().Before(until); n++ {
				for i := 0; i < burst; i++ {
					d.do(d.g.draw(i))
				}
				d.settle()
				if w.waitsEv > 0 && n%w.waitsEv == 0 {
					d.do(cmd{op: opWait}, expect{op: opWait})
				}
			}
		}(d)
	}
	wg.Wait()
	el := time.Since(start)
	var ops int64
	for _, d := range ds {
		ops += d.ops
		for _, e := range d.errs {
			b.fail(e)
		}
	}
	return float64(ops) / el.Seconds(), st.Close()
}

// cannedConn replays a fixed reply stream and discards what is written.
type cannedConn struct{ r *bytes.Reader }

func (c cannedConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c cannedConn) Write(p []byte) (int, error) { return len(p), nil }
func (c cannedConn) Close() error                { return nil }

func (b *bench) cannedGen() (*connGen, []uint64) {
	w := b.burstShape()
	g := newConnGen(w, b.seed, 0, newQueueOracle(b.seed))
	n := w.keysPerConn
	if w.queue {
		n = queuePrefill
	}
	var fifo []uint64
	for i := 0; i < n; i++ {
		if _, e := g.preload(i); e.op == opLPush {
			fifo = append(fifo, e.val)
		}
	}
	return g, fifo
}

// rungLoadgen (L4) runs the client's closed loop, oracle included, against
// canned replies: the generator's own cost per command, without a server.
func (b *bench) rungLoadgen(dur time.Duration) float64 {
	const bursts = 2048
	g, fifo := b.cannedGen()
	var buf []byte
	reply := func(e expect) {
		switch e.op {
		case opGet:
			v := strconv.FormatUint(e.val, 10)
			buf = fmt.Appendf(buf, "$%d\r\n%s\r\n", len(v), v)
		case opSet:
			buf = append(buf, "+OK\r\n"...)
		case opIncr:
			buf = fmt.Appendf(buf, ":%d\r\n", e.val)
		case opLPush:
			fifo = append(fifo, e.val)
			buf = append(buf, ":1\r\n"...)
		case opWait:
			buf = append(buf, ":1\r\n"...)
		case opRPop:
			v := strconv.FormatUint(fifo[0], 10)
			fifo = fifo[1:]
			buf = fmt.Appendf(buf, "$%d\r\n%s\r\n", len(v), v)
		}
	}
	n := g.w.burst
	if g.w.queue {
		n *= 2
	}
	for i := 0; i < bursts; i++ {
		for j := 0; j < n; j++ {
			_, e := g.draw(j)
			reply(e)
		}
		if ev := g.w.waitsEv; ev > 0 && (i+1)%ev == 0 {
			reply(expect{op: opWait})
		}
	}
	var el time.Duration
	var cmds int64
	for el < dur {
		g, _ := b.cannedGen()
		c := newClient(cannedConn{bytes.NewReader(buf)}, g, b.clk, true)
		t := time.Now()
		c.closedLoop(window{}, bursts)
		el += time.Since(t)
		cmds += c.s.sent
		if c.r.failed > 0 {
			b.fail(fmt.Sprintf("loadgen rung: %v", c.r.errs))
			break
		}
	}
	return float64(el.Nanoseconds()) / float64(cmds)
}

// noopStore is a server.Store that stores nothing: GET and RPOP find
// nothing, writes succeed. It gives the sockets-and-server ceiling (L2),
// and the self-test uses it as a store the oracle must reject.
type noopStore struct{ epoch bool }

func (noopStore) Get(int, uint64) server.Result            { return server.Result{Val: server.NotFound} }
func (noopStore) Set(int, uint64, uint64) server.Result    { return server.Result{Val: server.NotFound} }
func (noopStore) Del(int, uint64) server.Result            { return server.Result{Val: server.NotFound} }
func (noopStore) IncrBy(int, uint64, uint64) server.Result { return server.Result{} }
func (noopStore) LPush(int, uint64) server.Result          { return server.Result{} }
func (noopStore) RPop(int) server.Result                   { return server.Result{Val: server.NotFound} }
func (noopStore) PendingQueueClass(int) int                { return 0 }
func (noopStore) Flush(int)                                {}
func (noopStore) Pending(int) int                          { return 0 }
func (noopStore) Barrier(int)                              {}
func (s noopStore) Epoch() bool                            { return s.epoch }
func (noopStore) Threads() int                             { return 16 }

// rungNoop (L2) runs the workload's traffic shape against a server over
// the no-op store. Its replies are not judged (they are wrong by design);
// lost replies and error replies still fail the run.
func (b *bench) rungNoop(warm, dur time.Duration) (*phase, error) {
	gens, _ := b.newGens()
	s, err := b.serve(noopStore{epoch: b.w.epoch}, nil, gens, false)
	if err != nil {
		return nil, fmt.Errorf("no-op rung: %w", err)
	}
	p := b.measure(s, warm, dur, nil, false)
	return p, b.stop(s)
}
