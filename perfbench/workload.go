package main

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync/atomic"
	"time"

	"pcomb/internal/server"
)

// workload is one traffic mix. Every workload runs two client connections
// against one in-process server; the fields below are its fixed settings.
type workload struct {
	name string
	why  string

	epoch       bool // epoch-mode store (1 ms closes) instead of strict mode
	mapCapacity int  // ServerOptions.MapCapacity (0 = package default, 512)
	keysPerConn int  // map keys owned and preloaded by each connection

	queue   bool    // LPUSH/RPOP bursts instead of the GET/SET/INCRBY mix
	burst   int     // closed loop: commands written per burst
	waitsEv int     // closed loop: every waitsEv-th burst ends with a WAIT
	rate    float64 // open loop: total commands/s (0 = closed loop)
	waitOne int     // open loop: one command in waitOne is a WAIT
}

const (
	numConns     = 2
	queuePrefill = 4096
	epochCadence = time.Millisecond
)

var workloads = []*workload{
	{
		name:        "kv-pipelined",
		why:         "capacity: closed loop, 2 conns x bursts of 32 GET/SET/INCRBY over 16384 own keys, map 65536; full 16-op windows load resp, flush, pmem, tcp. Strict, SyncNone, pwb/pfence/psync 200/30/400ns",
		mapCapacity: 65536,
		keysPerConn: 16384,
		burst:       32,
		waitsEv:     16,
	},
	{
		name:        "kv-paced",
		why:         "open loop, Poisson 40000 cmd/s, 96 keys/conn, map 512, 1/64 WAIT: windows fill partly and close on the 500us deadline, so latency is window policy and wakeups, not flush cost",
		keysPerConn: 96,
		rate:        40000,
		waitOne:     64,
	},
	{
		name:    "queue-epoch",
		why:     "map idle: closed loop of 32 LPUSH + 32 RPOP then WAIT, 4096 prefilled, queue cap 2^20, epoch mode with 1ms closes: queue, epoch closer, WAIT->Sync, one reply write per command",
		epoch:   true,
		queue:   true,
		burst:   32,
		waitsEv: 1,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- Commands and the oracle ----

const (
	opGet byte = iota
	opSet
	opIncr
	opLPush
	opRPop
	opWait
	opProbe // handshake GET of a never-written key
)

// expect is the oracle's prediction for one command's reply, plus the time
// the command's latency is measured from (ns since the run's time base).
type expect struct {
	op  byte
	val uint64 // GET/INCRBY: the value the reply must carry
	t   int64
}

// Queue values encode (producer, sequence): producers 0..numConns-1 are the
// connections, producer numConns is the setup prefill.
const (
	seqBits      = 40
	seqMask      = 1<<seqBits - 1
	prefillProd  = numConns
	numProducers = numConns + 1
)

// queueOracle is the queue state shared by every connection: how many
// values each producer has sent, and where its sequence starts.
type queueOracle struct {
	base [numProducers]uint64
	sent [numProducers]atomic.Uint64
}

func newQueueOracle(seed int64) *queueOracle {
	r := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	q := &queueOracle{}
	for p := range q.base {
		q.base[p] = r.Uint64N(1 << 20)
	}
	return q
}

func (q *queueOracle) value(p int, seq uint64) uint64 {
	return uint64(p)<<seqBits | (q.base[p] + seq)
}

// connGen generates one connection's commands from the seed and keeps the
// client-side model of everything that connection owns: the value of each
// of its keys and the sequence of its pushes. Connections own disjoint key
// sets, so per-connection reply order makes every reply predictable.
type connGen struct {
	id   int
	w    *workload
	rng  *rand.Rand
	keys [][]byte // RESP bulk encoding of each key: "$len\r\nkey\r\n"
	hk   []uint64 // server.HashKey of each key (store-level rungs)
	vals []uint64 // model: last value written to each key
	q    *queueOracle

	lastPop [numProducers]uint64 // per producer: 1 + last popped sequence
	popped  []uint64             // every value this connection popped
	pops    int64
	hits    int64
}

func newConnGen(w *workload, seed int64, id int, q *queueOracle) *connGen {
	g := &connGen{
		id:   id,
		w:    w,
		rng:  rand.New(rand.NewPCG(uint64(seed), uint64(id)+1)),
		keys: make([][]byte, w.keysPerConn),
		hk:   make([]uint64, w.keysPerConn),
		vals: make([]uint64, w.keysPerConn),
		q:    q,
	}
	for i := range g.keys {
		k := fmt.Sprintf("c%d:key:%d", id, i)
		g.keys[i] = []byte(fmt.Sprintf("$%d\r\n%s\r\n", len(k), k))
		g.hk[i] = server.HashKey(k)
	}
	return g
}

func probeKey(id int) string { return fmt.Sprintf("perfbench:probe:%d", id) }

// cmd is one generated command; key indexes the connection's keys.
type cmd struct {
	op  byte
	key int
	n   uint64 // SET value, INCRBY delta, LPUSH value
}

// preload draws the setup command that writes owned key i once (kv
// workloads) or, on connection 0, one value of the queue prefill.
func (g *connGen) preload(i int) (cmd, expect) {
	if g.w.queue {
		return g.push(prefillProd)
	}
	v := g.rng.Uint64N(1 << 40)
	g.vals[i] = v
	return cmd{op: opSet, key: i, n: v}, expect{op: opSet}
}

// draw generates the connection's next workload command and the oracle's
// expectation for its reply. pos is the command's index in its burst.
func (g *connGen) draw(pos int) (cmd, expect) {
	if g.w.queue {
		if pos < g.w.burst {
			return g.push(g.id)
		}
		return cmd{op: opRPop}, expect{op: opRPop}
	}
	if g.w.waitOne > 0 && g.rng.IntN(g.w.waitOne) == 0 {
		return cmd{op: opWait}, expect{op: opWait}
	}
	k := g.rng.IntN(len(g.keys))
	switch r := g.rng.IntN(10); {
	case r < 5:
		return cmd{op: opGet, key: k}, expect{op: opGet, val: g.vals[k]}
	case r < 9:
		v := g.rng.Uint64N(1 << 40)
		g.vals[k] = v
		return cmd{op: opSet, key: k, n: v}, expect{op: opSet}
	default:
		d := 1 + g.rng.Uint64N(1000)
		g.vals[k] += d
		return cmd{op: opIncr, key: k, n: d}, expect{op: opIncr, val: g.vals[k]}
	}
}

// push draws producer p's next value; the expectation carries the value
// (the canned-reply rung replays the queue from it).
func (g *connGen) push(p int) (cmd, expect) {
	seq := g.q.sent[p].Load()
	v := g.q.value(p, seq)
	g.q.sent[p].Store(seq + 1)
	return cmd{op: opLPush, n: v}, expect{op: opLPush, val: v}
}

// write encodes c as a RESP array.
func (g *connGen) write(bw *bufio.Writer, c cmd) {
	switch c.op {
	case opGet:
		bw.WriteString("*2\r\n$3\r\nGET\r\n")
		bw.Write(g.keys[c.key])
	case opSet:
		writeCmd(bw, "SET", g.keys[c.key], c.n)
	case opIncr:
		writeCmd(bw, "INCRBY", g.keys[c.key], c.n)
	case opLPush:
		writeCmd(bw, "LPUSH", queueKey, c.n)
	case opRPop:
		bw.WriteString("*2\r\n$4\r\nRPOP\r\n")
		bw.Write(queueKey)
	case opWait:
		bw.WriteString("*3\r\n$4\r\nWAIT\r\n$1\r\n0\r\n$1\r\n0\r\n")
	case opProbe:
		k := probeKey(g.id)
		fmt.Fprintf(bw, "*2\r\n$3\r\nGET\r\n$%d\r\n%s\r\n", len(k), k)
	}
}

var queueKey = []byte("$1\r\nq\r\n")

// writeCmd writes a three-element command whose middle argument is already
// bulk-encoded and whose last is a decimal.
func writeCmd(bw *bufio.Writer, name string, arg []byte, n uint64) {
	var num [24]byte
	d := strconv.AppendUint(num[:0], n, 10)
	bw.WriteString("*3\r\n$")
	bw.WriteString(strconv.Itoa(len(name)))
	bw.WriteString("\r\n")
	bw.WriteString(name)
	bw.WriteString("\r\n")
	bw.Write(arg)
	bw.WriteByte('$')
	bw.WriteString(strconv.Itoa(len(d)))
	bw.WriteString("\r\n")
	bw.Write(d)
	bw.WriteString("\r\n")
}

// ---- Replies ----

// reply is one decoded RESP2 reply.
type reply struct {
	typ  byte // '+', '-', ':', '$'
	null bool // "$-1"
	ok   bool // "+OK"
	n    uint64
	msg  string // '-' only
}

var errReply = errors.New("malformed reply")

// readReply decodes one reply; bulk payloads must be decimal (the server
// stores uint64 words).
func readReply(br *bufio.Reader) (reply, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return reply{}, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return reply{}, errReply
	}
	r := reply{typ: line[0]}
	body := line[1 : len(line)-2]
	switch r.typ {
	case '+':
		r.ok = string(body) == "OK"
	case '-':
		r.msg = string(body)
	case ':':
		r.n, err = parseUint(body)
	case '$':
		if len(body) == 2 && body[0] == '-' && body[1] == '1' {
			r.null = true
			return r, nil
		}
		if line, err = br.ReadSlice('\n'); err != nil {
			return reply{}, err
		}
		if len(line) < 3 {
			return reply{}, errReply
		}
		r.n, err = parseUint(line[:len(line)-2])
	default:
		err = errReply
	}
	return r, err
}

func parseUint(b []byte) (uint64, error) {
	if len(b) == 0 || len(b) > 20 {
		return 0, errReply
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, errReply
		}
		n = n*10 + uint64(c-'0')
	}
	return n, nil
}

// check compares a reply with the oracle's expectation; a non-empty result
// describes the mismatch.
func (g *connGen) check(e expect, r reply) string {
	ok := false
	switch e.op {
	case opGet, opIncr:
		want := byte('$')
		if e.op == opIncr {
			want = ':'
		}
		ok = r.typ == want && !r.null && r.n == e.val
	case opSet:
		ok = r.ok
	case opLPush, opWait:
		ok = r.typ == ':' && r.n == 1
	case opProbe:
		ok = r.typ == '$' && r.null
	case opRPop:
		return g.checkPop(r)
	}
	if ok {
		return ""
	}
	return fmt.Sprintf("conn %d: op %d: got %+v, want %d", g.id, e.op, r, e.val)
}

// checkPop accepts an empty pop, or a value some producer has sent whose
// sequence is above every value this connection popped from that producer
// before (FIFO order per producer).
func (g *connGen) checkPop(r reply) string {
	g.pops++
	if r.typ == '$' && r.null {
		return ""
	}
	if r.typ != '$' {
		return fmt.Sprintf("conn %d: RPOP: got %+v", g.id, r)
	}
	p := int(r.n >> seqBits)
	if p >= numProducers || r.n&seqMask < g.q.base[p] {
		return fmt.Sprintf("conn %d: RPOP: value %#x was never pushed", g.id, r.n)
	}
	seq := r.n&seqMask - g.q.base[p]
	if seq >= g.q.sent[p].Load() {
		return fmt.Sprintf("conn %d: RPOP: value %#x popped before it was sent", g.id, r.n)
	}
	if seq+1 <= g.lastPop[p] {
		return fmt.Sprintf("conn %d: RPOP: producer %d seq %d after seq %d", g.id, p, seq, g.lastPop[p]-1)
	}
	g.lastPop[p] = seq + 1
	g.popped = append(g.popped, r.n)
	g.hits++
	return ""
}
