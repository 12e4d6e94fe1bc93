// Package fleet is the open-loop load rig: thousands of compact client
// state machines driven at a configured offered RPS against the simulated
// server (RunSim) or the real-socket frontend (RunSock), producing
// latency-vs-offered-load curves with exact p50/p99/p999 and SLO verdicts.
//
// Open loop means the send schedule never waits for replies: each client's
// next send is drawn from an exponential interarrival at the offered rate,
// fired by a per-shard timing wheel, and a late reply is recorded when it
// arrives (or the call is swept as a timeout) rather than blocking the
// schedule. Latency is measured from the *scheduled* send time, so a
// server that stalls accumulates the queueing delay in the tail instead of
// silently shedding offered load — the coordinated-omission correction the
// nanoPU paper argues closed-loop rigs get wrong (DESIGN.md §10).
//
// There is no goroutine or sim process per client. A shard owns one
// socket, one timing wheel, one pending-call table and a few thousand
// 16-byte client states; the whole 10k-mount fleet is a dozen shards. XIDs
// encode (client id << xidSeqBits | seq), so every call in flight is
// attributable to its client and unique fleet-wide.
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"renonfs/internal/check"
	"renonfs/internal/lockstat"
	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/metrics"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/stats"
	"renonfs/internal/workload"
	"renonfs/internal/xdr"
)

// Config parameterizes one fleet run (one point of a load curve).
type Config struct {
	Seed    int64
	Clients int // simulated mounts (>= 10k supported; default 1000)
	Shards  int // sockets/wheels the clients are split across (default 8)
	// OfferedRPS is the aggregate open-loop send rate across the fleet.
	OfferedRPS float64
	Warmup     time.Duration // excluded from every reported number
	Horizon    time.Duration // measured window
	Timeout    time.Duration // pending call expiry (default 5s)
	Scenario   *Scenario     // nil means steady load
	// Strict turns on the auditor's exactly-once rule (duplicate sends
	// must never execute a non-idempotent procedure twice).
	Strict bool

	// Real-socket engine only.
	Readers     int  // sharded ingest readers (0: GOMAXPROCS)
	NoReusePort bool // force shared-socket ingest so retransmits cross readers
}

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 1000
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Shards > c.Clients {
		c.Shards = c.Clients
	}
	if c.OfferedRPS <= 0 {
		c.OfferedRPS = 500
	}
	if c.Horizon <= 0 {
		c.Horizon = 10 * time.Second
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Scenario == nil {
		c.Scenario = GenerateScenario(Steady, c.Seed, c.Horizon)
	}
	return c
}

// Fixture and server shape, the same for both engines.
const (
	preloadFiles = 64   // shared files the clients work on
	serverNFSDs  = 16   // worker pool size
	dupCacheSize = 4096 // strict runs must not evict mid-run
)

// Timing-wheel shape: 1 ms ticks, 4096 slots (~4 s per revolution).
const (
	wheelGran  = time.Millisecond
	wheelSlots = 1 << 12
)

// XID layout: client id in the high bits, per-client sequence below. 18 id
// bits carry MaxClients; 14 sequence bits wrap at 16k calls per client,
// far beyond what can be in flight at once.
const xidSeqBits = 14

// MaxClients is the largest fleet whose clients' XIDs stay distinct.
const MaxClients = 1 << (32 - xidSeqBits)

// Tenant indexes into the mix table (and Scenario.TenantWeights).
const (
	tenantNhfsstone = iota
	tenantAndrew
	tenantCreateDelete
	numTenants
)

// clientState is one simulated mount: 16 bytes, no pointers, so 10k mounts
// are 160 KB in one slice — the per-client compaction the ROADMAP calls
// out as the prerequisite for fleet scale.
type clientState struct {
	rng    uint64 // xorshift64 state (never zero)
	seq    uint32 // next call sequence (xid low bits)
	file   uint16 // index into the preloaded shared files
	tenant uint8
	flags  uint8
}

const (
	flagWAN     = 1 << iota // behind the serial hop: header-only ops
	flagTemp                // this client's temp file exists (create/remove churn)
	flagRemount             // next fire re-issues MNT+LOOKUP (thundering herd)
)

// splitmix64 seeds per-client xorshift states from (seed, id) — every
// client's stream is independent and reproducible.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func xorshift64(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}

// randF returns a uniform float64 in [0,1).
func randF(s *uint64) float64 { return float64(xorshift64(s)>>11) / (1 << 53) }

// pendingCall tracks one in-flight RPC: when its send was *scheduled*
// (time since run start — the coordinated-omission-safe latency origin)
// and the procedure, for the auditor's failure events.
type pendingCall struct {
	at   time.Duration
	proc uint32
}

// compiledMix is a cumulative-probability table over sorted procedures, so
// one uniform draw picks an operation deterministically.
type compiledMix struct {
	procs []uint32
	cum   []float64
}

func compileMix(m map[uint32]float64) compiledMix {
	procs := make([]uint32, 0, len(m))
	for p := range m {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	cum := make([]float64, len(procs))
	total := 0.0
	for i, p := range procs {
		total += m[p]
		cum[i] = total
	}
	// Normalize so the last bucket always catches the draw.
	for i := range cum {
		cum[i] /= total
	}
	return compiledMix{procs: procs, cum: cum}
}

func (cm compiledMix) pick(u float64) uint32 {
	for i, c := range cm.cum {
		if u < c {
			return cm.procs[i]
		}
	}
	return cm.procs[len(cm.procs)-1]
}

// procMount is the out-of-band "procedure" for MOUNT MNT calls in pending
// tables and auditor events (real NFS procs stop at NumProcsExt).
const procMount = uint32(0xff)

// shard owns one socket's worth of clients: their states, the timing
// wheel that fires them, the pending-call table that demuxes replies by
// xid, and the counters and latency samples for its slice of the fleet.
// Only the environment's processes and events touch it, one at a time.
type shard struct {
	id   int
	base int // global client id of clients[0]
	wan  bool

	clients []clientState
	wheel   *wheel
	pending map[uint32]pendingCall
	due     []uint32  // advance() scratch
	rep     rpc.Reply // reply() scratch: one receiver per shard

	rate      float64 // per-client sends/sec (scenario rate steps scale it)
	baseRate  float64
	stormDups int // >0: non-idempotent sends are duplicated this many times

	// Measured window in run time: a call belongs to the window iff its
	// *scheduled* send time falls inside it, so warmup traffic never
	// pollutes the reported numbers even when its replies land later.
	winStart, winEnd time.Duration

	lat    stats.Samples  // reply latency, measured window only
	tracer metrics.Tracer // auditor source "fleet<id>"

	// Counters: whole-run totals (conservation) and measured-window slices
	// (rates and verdicts). "late" are replies that arrived after their
	// call was swept as a timeout — recorded, never waited on.
	sent, replies, timeouts, errors, late int64
	wSent, wReplies, wTimeouts, wErrors   int64
	mounts                                int64
}

// fleetState is everything the engines share: shards, preloaded handles,
// compiled mixes, the auditor, and the measurement window.
type fleetState struct {
	cfg    Config
	shards []*shard
	mixes  [numTenants]compiledMix
	wanMix compiledMix
	pre    *preload
	aud    *check.Auditor

	winStart, winEnd time.Duration // measured window in run time
}

// newRun builds what both engines run against: the Reno server over a memfs
// preloaded with the shared files, the auditor on the engine's clock
// (strict if the config asks), and the shards.
func newRun(cfg Config, now func() time.Duration) (*fleetState, *server.Server, error) {
	if cfg.Clients > MaxClients {
		return nil, nil, fmt.Errorf("fleet: %d clients: XIDs tell at most %d apart", cfg.Clients, MaxClients)
	}
	fsys := memfs.New(1, nil, nil)
	opts := server.Reno()
	opts.NFSDs = serverNFSDs
	opts.DupCacheSize = dupCacheSize
	opts.Readers = cfg.Readers
	opts.NoReusePort = cfg.NoReusePort
	srv := server.New(fsys, opts)
	aud := check.New(now)
	aud.SetExactlyOnce(cfg.Strict)
	srv.Tracer = aud.Tracer("server")
	pre, err := preloadFS(fsys, preloadFiles)
	if err != nil {
		return nil, nil, err
	}
	return newFleetState(cfg, aud, pre), srv, nil
}

// newFleetState builds the shard/client structures deterministically from
// the config: tenants drawn from the scenario's weights per client,
// trailing shards placed on the WAN per WANPerMille.
func newFleetState(cfg Config, aud *check.Auditor, pre *preload) *fleetState {
	fs := &fleetState{
		cfg: cfg, pre: pre, aud: aud,
		winStart: cfg.Warmup, winEnd: cfg.Warmup + cfg.Horizon,
	}
	fs.mixes[tenantNhfsstone] = compileMix(workload.FullMix())
	fs.mixes[tenantAndrew] = compileMix(workload.AndrewMix())
	fs.mixes[tenantCreateDelete] = compileMix(workload.CreateDeleteMix())
	fs.wanMix = compileMix(map[uint32]float64{
		nfsproto.ProcLookup: 0.6, nfsproto.ProcGetattr: 0.4,
	})
	sc := cfg.Scenario
	wsum := sc.TenantWeights[0] + sc.TenantWeights[1] + sc.TenantWeights[2]
	if wsum <= 0 {
		wsum = 1
		sc = &Scenario{TenantWeights: [3]int{1, 0, 0}}
	}
	wanShards := cfg.Shards * cfg.Scenario.WANPerMille / 1000
	perClientRate := cfg.OfferedRPS / float64(cfg.Clients)
	per := cfg.Clients / cfg.Shards
	extra := cfg.Clients % cfg.Shards
	base := 0
	for i := 0; i < cfg.Shards; i++ {
		n := per
		if i < extra {
			n++
		}
		sh := &shard{
			id: i, base: base,
			wan:     i >= cfg.Shards-wanShards,
			clients: make([]clientState, n),
			wheel:   newWheel(wheelSlots),
			pending: make(map[uint32]pendingCall),
			rate:    perClientRate, baseRate: perClientRate,
			winStart: fs.winStart, winEnd: fs.winEnd,
		}
		if aud != nil {
			sh.tracer = aud.Tracer(fmt.Sprintf("fleet%d", i))
		}
		for c := range sh.clients {
			id := base + c
			st := &sh.clients[c]
			st.rng = splitmix64(uint64(cfg.Seed) ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
			if st.rng == 0 {
				st.rng = 1
			}
			w := int(xorshift64(&st.rng) % uint64(wsum))
			switch {
			case w < sc.TenantWeights[0]:
				st.tenant = tenantNhfsstone
			case w < sc.TenantWeights[0]+sc.TenantWeights[1]:
				st.tenant = tenantAndrew
			default:
				st.tenant = tenantCreateDelete
			}
			st.file = uint16(xorshift64(&st.rng) % preloadFiles)
			if sh.wan {
				st.flags |= flagWAN
			}
			// Stagger initial sends across one mean interarrival.
			sh.wheel.schedule(uint32(c), sh.delayTicks(st))
		}
		fs.shards = append(fs.shards, sh)
		base += n
	}
	return fs
}

// delayTicks draws the client's next exponential interarrival in wheel
// ticks, clamped so the wheel never sees a zero or absurd delay.
func (sh *shard) delayTicks(st *clientState) uint32 {
	mean := 1.0 / sh.rate // seconds
	d := -math.Log(1-randF(&st.rng)) * mean
	ticks := d * float64(time.Second/wheelGran)
	if ticks < 1 {
		ticks = 1
	}
	// An entry more than ~30 revolutions out costs 30 rescans — fine; cap
	// only to keep uint32 arithmetic comfortable (~73 min at 1 ms ticks).
	if ticks > float64(1<<22) {
		ticks = float64(1 << 22)
	}
	return uint32(ticks)
}

// xidOf allocates the next xid for client (shard-local index ci).
func (sh *shard) xidOf(ci int) uint32 {
	st := &sh.clients[ci]
	xid := uint32(sh.base+ci)<<xidSeqBits | (st.seq & (1<<xidSeqBits - 1))
	st.seq++
	return xid
}

// op is one wire call ready to send: dups > 1 means the client fires that
// many identical datagrams back-to-back (retransmission storm).
type op struct {
	proc uint32
	xid  uint32
	wire *mbuf.Chain
	dups int
}

// preload is the server-side fixture the fleet operates on: shared files,
// symlink handles and the root, created directly in the FS before traffic
// starts (no RPCs, so warmup measures the server, not the setup).
type preload struct {
	root   nfsproto.FH
	files  []nfsproto.FH
	links  []nfsproto.FH
	names  []string // file names, index-aligned with files
	buf512 []byte   // shared write payload
}

// preloadFS populates fs for a fleet run. It goes through the FS directly
// (nil proc — the frontends do the same for real-socket traffic), so it
// works identically for both engines.
func preloadFS(fsys *memfs.FS, files int) (*preload, error) {
	root := fsys.Root()
	p := &preload{root: fsys.FH(root), buf512: make([]byte, 2048)}
	for i := range p.buf512 {
		p.buf512[i] = byte(i)
	}
	content := make([]byte, nfsproto.MaxData)
	for i := range content {
		content[i] = byte(i * 7)
	}
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("fl%04d", i)
		n, err := fsys.Create(nil, root, name, 0644)
		if err != nil {
			return nil, fmt.Errorf("preload create %s: %w", name, err)
		}
		if err := fsys.WriteAt(nil, n, 0, content, 0); err != nil {
			return nil, fmt.Errorf("preload write %s: %w", name, err)
		}
		p.files = append(p.files, fsys.FH(n))
		p.names = append(p.names, name)
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("ln%d", i)
		n, err := fsys.Symlink(nil, root, name, "fl0000", 0777)
		if err != nil {
			return nil, fmt.Errorf("preload symlink %s: %w", name, err)
		}
		p.links = append(p.links, fsys.FH(n))
	}
	return p, nil
}

// tempName is the per-client temp file for create/remove churn: unique per
// client, so 10k mounts never collide on a name.
func tempName(id int) string { return fmt.Sprintf("flt%05d", id) }

// encodeNFS builds the wire chain of one NFS call.
func encodeNFS(xid, proc uint32, enc func(e *xdr.Encoder)) *mbuf.Chain {
	msg := &mbuf.Chain{}
	rpc.EncodeCall(msg, &rpc.Call{XID: xid, Prog: nfsproto.Program,
		Vers: nfsproto.Version, Proc: proc})
	enc(xdr.NewEncoder(msg))
	return msg
}

// encodeMount builds the wire chain of one MOUNT MNT call.
func encodeMount(xid uint32) *mbuf.Chain {
	msg := &mbuf.Chain{}
	rpc.EncodeCall(msg, &rpc.Call{XID: xid, Prog: nfsproto.MountProgram,
		Vers: nfsproto.MountVersion, Proc: nfsproto.MountProcMnt})
	(&nfsproto.MntArgs{DirPath: "/"}).Encode(xdr.NewEncoder(msg))
	return msg
}

// buildOps appends the client's next wire calls to ops (usually one; a
// remounting client issues MNT+LOOKUP).
func (fs *fleetState) buildOps(sh *shard, ci int, ops []op) []op {
	st := &sh.clients[ci]
	pre := fs.pre
	id := sh.base + ci

	if st.flags&flagRemount != 0 {
		st.flags &^= flagRemount
		st.flags &^= flagTemp // volatile state died with the server
		mx, lx := sh.xidOf(ci), sh.xidOf(ci)
		dups := 1
		if sh.stormDups > 1 {
			dups = sh.stormDups
		}
		ops = append(ops,
			op{proc: procMount, xid: mx, wire: encodeMount(mx), dups: dups},
			op{proc: nfsproto.ProcLookup, xid: lx, dups: 1,
				wire: encodeNFS(lx, nfsproto.ProcLookup, func(e *xdr.Encoder) {
					(&nfsproto.DiropArgs{Dir: pre.root, Name: pre.names[st.file]}).Encode(e)
				})})
		return ops
	}

	var proc uint32
	u := randF(&st.rng)
	if st.flags&flagWAN != 0 {
		proc = fs.wanMix.pick(u)
	} else {
		proc = fs.mixes[st.tenant].pick(u)
	}
	// Create/remove churn must alternate against the client's own temp
	// file: remove-before-create is rewritten so the steady state is a
	// create/remove cycle rather than a stream of ErrNoEnt.
	if proc == nfsproto.ProcRemove && st.flags&flagTemp == 0 {
		proc = nfsproto.ProcCreate
	}
	if proc == nfsproto.ProcCreate && st.flags&flagTemp != 0 {
		proc = nfsproto.ProcRemove
	}

	xid := sh.xidOf(ci)
	o := op{proc: proc, xid: xid, dups: 1}
	if sh.stormDups > 1 && nfsproto.NonIdempotent[proc] {
		o.dups = sh.stormDups
	}
	fh := pre.files[st.file]
	switch proc {
	case nfsproto.ProcGetattr:
		o.wire = encodeNFS(xid, proc, func(e *xdr.Encoder) {
			(&nfsproto.GetattrArgs{File: fh}).Encode(e)
		})
	case nfsproto.ProcSetattr:
		o.wire = encodeNFS(xid, proc, func(e *xdr.Encoder) {
			a := nfsproto.NewSattr()
			a.Mode = 0644
			(&nfsproto.SetattrArgs{File: fh, Attr: a}).Encode(e)
		})
	case nfsproto.ProcLookup:
		o.wire = encodeNFS(xid, proc, func(e *xdr.Encoder) {
			(&nfsproto.DiropArgs{Dir: pre.root, Name: pre.names[st.file]}).Encode(e)
		})
	case nfsproto.ProcReadlink:
		lfh := pre.links[int(xorshift64(&st.rng)%uint64(len(pre.links)))]
		o.wire = encodeNFS(xid, proc, func(e *xdr.Encoder) {
			(&nfsproto.GetattrArgs{File: lfh}).Encode(e) // readlink args: bare FH
		})
	case nfsproto.ProcRead:
		o.wire = encodeNFS(xid, proc, func(e *xdr.Encoder) {
			(&nfsproto.ReadArgs{File: fh, Offset: 0, Count: nfsproto.MaxData}).Encode(e)
		})
	case nfsproto.ProcWrite:
		o.wire = encodeNFS(xid, proc, func(e *xdr.Encoder) {
			(&nfsproto.WriteArgs{File: fh, Offset: 0,
				Data: mbuf.FromBytes(pre.buf512)}).Encode(e)
		})
	case nfsproto.ProcCreate:
		st.flags |= flagTemp
		o.wire = encodeNFS(xid, proc, func(e *xdr.Encoder) {
			a := nfsproto.NewSattr()
			a.Mode = 0644
			(&nfsproto.CreateArgs{
				Where: nfsproto.DiropArgs{Dir: pre.root, Name: tempName(id)},
				Attr:  a}).Encode(e)
		})
	case nfsproto.ProcRemove:
		st.flags &^= flagTemp
		o.wire = encodeNFS(xid, proc, func(e *xdr.Encoder) {
			(&nfsproto.DiropArgs{Dir: pre.root, Name: tempName(id)}).Encode(e)
		})
	case nfsproto.ProcReaddir:
		o.wire = encodeNFS(xid, proc, func(e *xdr.Encoder) {
			(&nfsproto.ReaddirArgs{Dir: pre.root, Count: 1024}).Encode(e)
		})
	case nfsproto.ProcStatfs:
		o.wire = encodeNFS(xid, proc, func(e *xdr.Encoder) {
			(&nfsproto.GetattrArgs{File: pre.root}).Encode(e) // statfs args: bare FH
		})
	default:
		// Mix procedures are all handled above; guard against drift.
		o.proc = nfsproto.ProcGetattr
		o.wire = encodeNFS(xid, nfsproto.ProcGetattr, func(e *xdr.Encoder) {
			(&nfsproto.GetattrArgs{File: fh}).Encode(e)
		})
	}
	return append(ops, o)
}

// recordSend books one call (and its storm duplicates) before any datagram
// leaves: the pending entry and the auditor's CallSent/Retransmit events
// must exist before a reply can race in on the receiver. at is the
// *scheduled* fire time.
func (sh *shard) recordSend(o op, at time.Duration) {
	sh.pending[o.xid] = pendingCall{at: at, proc: o.proc}
	sh.sent++
	if at >= sh.winStart && at < sh.winEnd {
		sh.wSent++
	}
	if o.proc == procMount {
		sh.mounts++
	}
	metrics.Emit(sh.tracer, metrics.CallSent{Proc: o.proc, XID: o.xid})
	for d := 1; d < o.dups; d++ {
		metrics.Emit(sh.tracer, metrics.Retransmit{Proc: o.proc, XID: o.xid, Backoff: d})
	}
}

// reply decodes one reply datagram into the shard's scratch and resolves
// it against the pending table; a datagram that does not decode is
// dropped. Window membership is decided by when the call was scheduled.
func (sh *shard) reply(d *xdr.Decoder, now time.Duration) {
	if rpc.DecodeReplyInto(d, &sh.rep) != nil {
		return
	}
	xid := sh.rep.XID
	pc, ok := sh.pending[xid]
	if !ok {
		// Resolved already (timeout sweep) or never ours: a late reply is
		// recorded, not waited on — the open-loop contract.
		sh.late++
		return
	}
	delete(sh.pending, xid)
	sh.replies++
	lat := now - pc.at
	inWin := pc.at >= sh.winStart && pc.at < sh.winEnd
	if inWin {
		sh.wReplies++
		sh.lat.Add(lat)
	}
	if sh.rep.Denied || sh.rep.AcceptStat != rpc.Success {
		sh.errors++
		if inWin {
			sh.wErrors++
		}
	}
	metrics.Emit(sh.tracer, metrics.Reply{Proc: pc.proc, XID: xid, RTT: lat})
}

// sweep expires pending calls scheduled before cutoff, emitting
// CallFailed so the auditor's conservation rule stays exact. Returns how
// many were expired.
func (sh *shard) sweep(cutoff time.Duration) int {
	n := 0
	for xid, pc := range sh.pending {
		if pc.at >= cutoff {
			continue
		}
		delete(sh.pending, xid)
		sh.timeouts++
		if pc.at >= sh.winStart && pc.at < sh.winEnd {
			sh.wTimeouts++
		}
		metrics.Emit(sh.tracer, metrics.CallFailed{Proc: pc.proc, XID: xid,
			Reason: "fleet-timeout"})
		n++
	}
	return n
}

// start spawns every shard's sender and receiver on env, in shard order,
// over socks[i] to the server at dst, then schedules the scenario script.
func (fs *fleetState) start(env *sim.Env, socks []netsim.Endpoint, dst netsim.NodeID) {
	for i, sh := range fs.shards {
		sock := socks[i]
		env.Spawn(fmt.Sprintf("fleet-send%d", sh.id), func(p *sim.Proc) {
			fs.sendLoop(p, sh, sock, dst)
		})
		env.Spawn(fmt.Sprintf("fleet-recv%d", sh.id), func(p *sim.Proc) {
			for {
				dg, ok := sock.Queue().Recv(p)
				if !ok {
					return
				}
				sh.reply(xdr.NewDecoder(dg.Payload), p.Now())
				dg.Payload.Free()
				dg.Release()
			}
		})
	}
	fs.script(env)
}

// sendLoop is one shard's sender. Every wheelGran it sleeps to the tick and
// stops once the tick passes the window. It advances the wheel, builds every
// due client's calls, books them at the scheduled tick and reschedules the
// client, then sends them. Booking first means the pending entry and the
// auditor's CallSent precede the datagram, so a reply never races its own
// call; and the scheduled tick, not the possibly later actual send, is the
// coordinated-omission-safe latency origin. A simulated send charges CPU
// and may carry the process past a tick boundary; the ticks are absolute,
// so the wheel never drifts from the clock.
func (fs *fleetState) sendLoop(p *sim.Proc, sh *shard, sock netsim.Endpoint, dst netsim.NodeID) {
	var ops []op
	for tick := wheelGran; ; tick += wheelGran {
		if now := p.Now(); now < tick {
			p.Sleep(tick - now)
		}
		if tick > fs.winEnd {
			return
		}
		sh.due = sh.wheel.advance(sh.due[:0])
		ops = ops[:0]
		for _, ci := range sh.due {
			ops = fs.buildOps(sh, int(ci), ops)
			sh.wheel.schedule(ci, sh.delayTicks(&sh.clients[ci]))
		}
		for _, o := range ops {
			sh.recordSend(o, tick)
		}
		// Periodic expiry keeps the pending table bounded.
		if sh.wheel.tick%1024 == 0 {
			sh.sweep(tick - fs.cfg.Timeout)
		}
		for _, o := range ops {
			for d := 1; d < o.dups; d++ {
				sock.Send(p, dst, server.NFSPort, o.wire.Clone())
			}
			sock.Send(p, dst, server.NFSPort, o.wire)
		}
	}
}

// script schedules the scenario's rate steps, storm windows and remount
// herds on env (scenario time plus warmup). Crash windows are the engine's
// to add: faultplan in the simulator, SetDown/Crash over real sockets.
func (fs *fleetState) script(env *sim.Env) {
	sc, w := fs.cfg.Scenario, fs.cfg.Warmup
	for _, rs := range sc.RateSteps {
		env.At(w+rs.At, func() {
			fs.each(func(sh *shard) { sh.rate = sh.baseRate * rs.Mult })
		})
	}
	for _, st := range sc.Storms {
		env.At(w+st.Start, func() { fs.each(func(sh *shard) { sh.stormDups = st.Dups }) })
		env.At(w+st.End, func() { fs.each(func(sh *shard) { sh.stormDups = 0 }) })
	}
	for _, rm := range sc.Remounts {
		env.At(w+rm.At, func() { fs.remountAll(rm.Jitter) })
	}
}

// each runs fn on every shard.
func (fs *fleetState) each(fn func(sh *shard)) {
	for _, sh := range fs.shards {
		fn(sh)
	}
}

// remountAll scripts the thundering herd: every client's wheel entry is
// torn up and replaced with a remount fire inside the jitter window.
func (fs *fleetState) remountAll(jitter time.Duration) {
	jt := uint32(jitter / wheelGran)
	if jt < 1 {
		jt = 1
	}
	fs.each(func(sh *shard) {
		sh.wheel.clear()
		for c := range sh.clients {
			st := &sh.clients[c]
			st.flags |= flagRemount
			sh.wheel.schedule(uint32(c), 1+uint32(xorshift64(&st.rng))%jt)
		}
	})
}

// Result is one fleet run's outcome: totals for conservation, the
// measured-window rates and percentiles, and the audit verdict.
type Result struct {
	Engine   string
	Offered  float64
	Clients  int
	Shards   int
	Scenario *Scenario

	// Whole-run totals (sent == replies + timeouts after the final sweep).
	Sent, Replies, Timeouts, Errors, Late, Mounts int64
	// Measured window only (scheduled inside [Warmup, Warmup+Horizon)).
	WSent, WReplies, WTimeouts, WErrors int64

	AchievedRPS float64 // window sends / horizon — offered load actually generated
	GoodputRPS  float64 // window replies / horizon
	// Lat holds every window reply's latency from its scheduled send tick,
	// so Lat.Count == WReplies and its quantiles are exact.
	Lat stats.Samples

	Violations  []check.Violation
	AuditCounts map[string]int

	// Real-socket drain counters: every datagram read was serviced inline
	// on its reader — on the shallow path (fast) or through the generic
	// dispatch (inline) — or spilled to a worker (Σ reader reads ==
	// Σ nfsd calls + Σ reader fast + Σ reader inline after Close).
	// ReaderWakeups counts the blocking reads that returned datagrams, so
	// ReaderReads/ReaderWakeups is the mean drain per wakeup.
	ReaderReads, ReaderFast, ReaderInline, NfsdCalls, ReaderWakeups int64
	// PerReaderReads breaks ReaderReads down by ingest shard (the herd
	// test's cross-reader spread assertion).
	PerReaderReads []int64
	// KernelDrops counts the datagrams the kernel dropped at the server's
	// full receive queues (rpc.udp.kernel_drops): no reader ever saw them.
	KernelDrops int64
	// Shallow-path accounting: inline-serviced calls, and the batched
	// writer's syscall/reply split (SendBatches send syscalls carried
	// SendMsgs replies).
	FastCalls, SendBatches, SendMsgs int64
	// Locks is each lockstat site's contention during the run, most wait
	// first. The sites are process-wide, so a concurrent run in the same
	// process would be counted too.
	Locks []lockstat.Stat
}

// finish ends the run once the engine has stopped sending and receiving:
// every call still pending is swept as a timeout, the shards fold into a
// Result, and the audit closes.
func (fs *fleetState) finish(engine string) *Result {
	r := &Result{
		Engine: engine, Offered: fs.cfg.OfferedRPS,
		Clients: fs.cfg.Clients, Shards: fs.cfg.Shards,
		Scenario: fs.cfg.Scenario,
	}
	for _, sh := range fs.shards {
		sh.sweep(time.Duration(1 << 62))
		r.Sent += sh.sent
		r.Replies += sh.replies
		r.Timeouts += sh.timeouts
		r.Errors += sh.errors
		r.Late += sh.late
		r.Mounts += sh.mounts
		r.WSent += sh.wSent
		r.WReplies += sh.wReplies
		r.WTimeouts += sh.wTimeouts
		r.WErrors += sh.wErrors
		r.Lat.AddAll(&sh.lat)
	}
	secs := fs.cfg.Horizon.Seconds()
	r.AchievedRPS = float64(r.WSent) / secs
	r.GoodputRPS = float64(r.WReplies) / secs
	r.Violations = fs.aud.Finish()
	r.AuditCounts = fs.aud.Counts()
	return r
}

// TimeoutFrac is the fraction of window sends that expired unanswered.
func (r *Result) TimeoutFrac() float64 {
	if r.WSent == 0 {
		return 0
	}
	return float64(r.WTimeouts) / float64(r.WSent)
}

// Fingerprint hashes everything a deterministic engine must reproduce for
// a seed: the scenario schedule, the call totals and the audit counts.
// Two RunSim calls with the same config must agree (the determinism test).
func (r *Result) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sched:%s;", r.Scenario)
	fmt.Fprintf(&b, "sent:%d;replies:%d;timeouts:%d;errors:%d;late:%d;mounts:%d;",
		r.Sent, r.Replies, r.Timeouts, r.Errors, r.Late, r.Mounts)
	fmt.Fprintf(&b, "wsent:%d;wreplies:%d;wtimeouts:%d;hist:%d;",
		r.WSent, r.WReplies, r.WTimeouts, r.Lat.Count)
	keys := make([]string, 0, len(r.AuditCounts))
	for k := range r.AuditCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d;", k, r.AuditCounts[k])
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// SLO is the latency/loss contract a load point is judged against.
type SLO struct {
	P50, P99, P999 time.Duration
	// MaxTimeoutFrac bounds window timeouts / window sends.
	MaxTimeoutFrac float64
}

// DefaultSLO is deliberately loose — a knee-finding default, not a claim.
func DefaultSLO() SLO {
	return SLO{P50: 50 * time.Millisecond, P99: 500 * time.Millisecond,
		P999: 2 * time.Second, MaxTimeoutFrac: 0.01}
}

// ParseSLO parses "p50=5ms,p99=50ms,p999=250ms,timeouts=0.01". Omitted
// fields keep the default; unknown keys, negative durations and timeout
// fractions outside [0, 1] are errors. A zero duration disables its clause.
func ParseSLO(s string) (SLO, error) {
	slo := DefaultSLO()
	if s == "" {
		return slo, nil
	}
	durs := map[string]*time.Duration{"p50": &slo.P50, "p99": &slo.P99, "p999": &slo.P999}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return slo, fmt.Errorf("slo: %q is not key=value", part)
		}
		switch dp := durs[k]; {
		case dp != nil:
			d, err := time.ParseDuration(v)
			if err == nil && d < 0 {
				err = fmt.Errorf("negative duration %v", d)
			}
			if err != nil {
				return slo, fmt.Errorf("slo: %s: %w", k, err)
			}
			*dp = d
		case k == "timeouts":
			f, err := strconv.ParseFloat(v, 64)
			if err == nil && !(f >= 0 && f <= 1) { // NaN fails both
				err = fmt.Errorf("%v is not a fraction in [0, 1]", f)
			}
			if err != nil {
				return slo, fmt.Errorf("slo: timeouts: %w", err)
			}
			slo.MaxTimeoutFrac = f
		default:
			return slo, fmt.Errorf("slo: unknown key %q (want p50/p99/p999/timeouts)", k)
		}
	}
	return slo, nil
}

// Check returns the SLO clauses the result does not pass (empty means
// pass): a violated clause, or a latency clause whose exact quantile is
// undefined (too few window replies above its rank), which reports as
// unjudged rather than passing silently.
func (slo SLO) Check(r *Result) []string {
	var fails []string
	for _, c := range []struct {
		name  string
		p     float64
		bound time.Duration
	}{{"p50", 50, slo.P50}, {"p99", 99, slo.P99}, {"p999", 99.9, slo.P999}} {
		if c.bound <= 0 {
			continue
		}
		v, ok := r.Lat.Quantile(c.p)
		switch {
		case !ok:
			fails = append(fails, fmt.Sprintf("%s unjudged (n=%d)", c.name, r.Lat.Count))
		case v > float64(c.bound)/float64(time.Millisecond):
			fails = append(fails, fmt.Sprintf("%s %.1fms > %v", c.name, v, c.bound))
		}
	}
	if f := r.TimeoutFrac(); f > slo.MaxTimeoutFrac {
		fails = append(fails, fmt.Sprintf("timeouts %.3f > %.3f", f, slo.MaxTimeoutFrac))
	}
	return fails
}
