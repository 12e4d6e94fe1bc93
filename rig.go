// Package renonfs is a from-scratch reproduction of the system described
// in Rick Macklem's "Lessons Learned Tuning the 4.3BSD Reno Implementation
// of the NFS Protocol" (USENIX Summer 1991): an NFS v2 client and server
// with Reno's caching machinery, three interchangeable RPC transports
// (fixed-RTO UDP, dynamic-RTO UDP with a congestion window, and TCP), a
// deterministic network/host simulator calibrated to the paper's testbed,
// and the benchmarks and experiment drivers that regenerate every table
// and figure in the paper's evaluation.
//
// The top-level entry points are:
//
//   - NewRig: build a client/server testbed on one of the paper's three
//     internetwork topologies;
//   - Rig.Mount / Rig.DialTransport: attach clients with chosen transport
//     and caching personalities;
//   - Experiments / RunExperiment: regenerate a specific table or figure;
//   - internal/nfsnet (via cmd/nfsd): the same server over real sockets.
package renonfs

import (
	"time"

	"renonfs/internal/client"
	"renonfs/internal/memfs"
	"renonfs/internal/metrics"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsproto"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/tcpsim"
	"renonfs/internal/transport"
)

// Topology re-exports the paper's three interconnects.
type Topology = netsim.Topology

// The three internetwork configurations of §4, plus the Future Directions
// long-fat-pipe testbed.
const (
	TopoLAN  = netsim.TopoLAN
	TopoRing = netsim.TopoRing
	TopoSlow = netsim.TopoSlow
	TopoLFN  = netsim.TopoLFN
)

// TransportKind selects one of the three §4 transports.
type TransportKind int

const (
	// UDPFixed is classic NFS/UDP: fixed mount RTO, exponential backoff.
	UDPFixed TransportKind = iota
	// UDPDynamic is the tuned transport: per-class A+4D/A+2D estimation,
	// per-tick RTO recalculation, congestion window without slow start.
	UDPDynamic
	// TCP is the reliable virtual circuit transport.
	TCP
)

func (k TransportKind) String() string {
	switch k {
	case UDPFixed:
		return "udp-fixed"
	case UDPDynamic:
		return "udp-dyn"
	case TCP:
		return "tcp"
	default:
		return "unknown"
	}
}

// RigConfig describes a testbed.
type RigConfig struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// Topology is one of the §4 interconnects (default TopoLAN).
	Topology Topology
	// ServerOpts selects the server personality (default server.Reno()).
	ServerOpts server.Options
	// ClientMIPS and ServerMIPS set host speeds (default MicroVAXII).
	ClientMIPS float64
	ServerMIPS float64
	// ServerDisk attaches an RD53 so writes cost disk time.
	ServerDisk bool
	// ServerPageRemap / ServerNoTxIntr apply the §3 NIC tuning to the
	// server host.
	ServerPageRemap bool
	ServerNoTxIntr  bool
}

// Rig is a built testbed: simulated network, NFS server (serving both UDP
// and TCP), and factories for transports and client mounts.
type Rig struct {
	Env     *sim.Env
	Net     *netsim.Testbed
	Server  *server.Server
	FS      *memfs.FS
	nextUDP int
}

// NewRig builds and starts a testbed.
func NewRig(cfg RigConfig) *Rig {
	if cfg.Topology == 0 {
		cfg.Topology = TopoLAN
	}
	if cfg.ServerOpts.Name == "" {
		cfg.ServerOpts = server.Reno()
	}
	env := sim.New(cfg.Seed)
	tb := netsim.Build(env, cfg.Topology,
		netsim.NodeConfig{Name: "client", MIPS: cfg.ClientMIPS},
		netsim.NodeConfig{
			Name: "server", MIPS: cfg.ServerMIPS,
			PageRemapTx: cfg.ServerPageRemap, NoTxInterrupts: cfg.ServerNoTxIntr,
		})
	var disk *memfs.Disk
	if cfg.ServerDisk {
		disk = memfs.NewRD53(env, "server.rd53")
	}
	fs := memfs.New(1, disk, func() nfsproto.Time {
		now := env.Now()
		return nfsproto.Time{
			Sec:  uint32(now / time.Second),
			USec: uint32(now % time.Second / time.Microsecond),
		}
	})
	srv := server.New(fs, cfg.ServerOpts)
	srv.AttachNode(tb.Server)
	srv.ServeUDP(server.NFSPort)
	srv.ServeTCP(tcpsim.NewStack(tb.Server), server.NFSPort)
	return &Rig{Env: env, Net: tb, Server: srv, FS: fs, nextUDP: 1000}
}

// DialTransport creates a transport of the given kind from the client
// host to the server. TCP dials a connection, so a simulated process is
// required; UDP kinds accept a nil proc.
func (r *Rig) DialTransport(p *sim.Proc, kind TransportKind) (transport.Transport, error) {
	switch kind {
	case UDPFixed:
		return r.DialUDPConfig(transport.FixedUDP()), nil
	case UDPDynamic:
		return r.DialUDPConfig(transport.DynamicUDP()), nil
	case TCP:
		return transport.NewTCP(p, tcpsim.NewStack(r.Net.Client), r.Net.Server.ID, server.NFSPort)
	default:
		panic("renonfs: unknown transport kind")
	}
}

// DialUDPConfig creates a UDP transport with an explicit configuration
// (for the ablation experiments).
func (r *Rig) DialUDPConfig(cfg transport.UDPConfig) *transport.UDP {
	r.nextUDP++
	return transport.NewUDP(r.Net.Client, r.nextUDP, r.Net.Server.ID, server.NFSPort, cfg)
}

// replyTracer hands fn the RTT and transmit-time RTO of each proc reply.
func replyTracer(proc uint32, fn func(rtt, rto sim.Time)) metrics.Tracer {
	return metrics.FuncTracer(func(ev metrics.Event) {
		if rep, ok := ev.(metrics.Reply); ok && rep.Proc == proc {
			fn(rep.RTT, rep.RTO)
		}
	})
}

// Mount attaches a client mount using the given transport kind and client
// personality.
func (r *Rig) Mount(p *sim.Proc, kind TransportKind, opts client.Options) (*client.Mount, error) {
	tr, err := r.DialTransport(p, kind)
	if err != nil {
		return nil, err
	}
	return client.NewMount(r.Net.Client, tr, r.Server.RootFH(), opts), nil
}

// Run advances the simulation to the horizon.
func (r *Rig) Run(d sim.Time) sim.Time { return r.Env.Run(d) }

// runWorkload spawns fn as the process that drives an experiment's workload
// and runs env until fn returns, or until the clock reaches limit if it has
// not returned by then. Every number a table prints is read by the time fn
// returns, so the idle run-out to limit that would follow is skipped.
func runWorkload(env *sim.Env, name string, limit sim.Time, fn func(p *sim.Proc)) {
	env.Spawn(name, func(p *sim.Proc) {
		defer env.Stop()
		fn(p)
	})
	env.Run(limit)
}

// Close shuts the simulation down.
func (r *Rig) Close() { r.Env.Close() }

// Re-exported client personalities, so downstream users need only this
// package for the common cases.

// RenoClient is the tuned 4.3BSD Reno client personality.
func RenoClient() client.Options { return client.Reno() }

// UltrixClient is the Sun-reference-port client personality.
func UltrixClient() client.Options { return client.Ultrix() }

// NoConsistClient is Reno with the experimental no-consistency mount flag.
func NoConsistClient() client.Options { return client.RenoNoConsist() }

// RenoServer is the tuned server personality.
func RenoServer() server.Options { return server.Reno() }

// UltrixServer is the reference-port server personality.
func UltrixServer() server.Options { return server.Ultrix() }
