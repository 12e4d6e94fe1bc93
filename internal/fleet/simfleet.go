package fleet

import (
	"fmt"
	"time"

	"renonfs/internal/check"
	"renonfs/internal/faultplan"
	"renonfs/internal/memfs"
	"renonfs/internal/netsim"
	"renonfs/internal/rpc"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/xdr"
)

// Sim-engine constants. Client hosts stand in for thousands of mounts, so
// they get generous CPU — the rig measures the server and the network.
// Shard sockets bind fleetBasePort+id on the LAN (or WAN) host.
const (
	fleetBasePort = 20000
	fleetHostMIPS = 2000
)

// RunSim drives the fleet against the simulated server on the fleet
// topology (server—router—LAN host, WAN host behind the 56 Kbit/s serial
// hop). Everything — interarrivals, scenario events, crashes — runs on the
// deterministic event clock, so a (config, seed) pair always produces the
// same Result.Fingerprint.
//
// Locking discipline: the simulator is single-threaded (one process runs
// at a time, synchronized through the scheduler), so shard state is
// accessed without sh.mu here — a process must never hold a mutex across a
// park, and the scheduler already serializes everything. The fleetState
// helpers used by scenario callbacks take the lock, which is merely
// uncontended overhead in this engine.
func RunSim(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	env := sim.New(cfg.Seed)
	defer env.Close()

	ft := netsim.BuildFleet(env,
		netsim.NodeConfig{Name: "lanfleet", MIPS: fleetHostMIPS},
		netsim.NodeConfig{Name: "wanfleet", MIPS: fleetHostMIPS},
		netsim.NodeConfig{Name: "server", MIPS: cfg.ServerMIPS})

	fsys := memfs.New(1, nil, nil)
	opts := server.Reno()
	opts.NFSDs = cfg.NFSDs
	opts.DupCacheSize = cfg.DupCacheSize
	srv := server.New(fsys, opts)
	aud := check.New(func() time.Duration { return env.Now() })
	aud.SetExactlyOnce(cfg.Strict)
	srv.Tracer = aud.Tracer("server")
	srv.AttachNode(ft.Server)
	srv.ServeUDP(server.NFSPort)

	pre, err := preloadFS(fsys, cfg.Files)
	if err != nil {
		return nil, err
	}
	fst := newFleetState(cfg, aud, pre)

	stopAt := cfg.Warmup + cfg.Horizon
	// Drain long enough that any reply still in flight at sender stop has
	// arrived or timed out before the final sweep (WAN RTTs are seconds).
	drain := cfg.Timeout
	serverID := ft.Server.ID

	for _, sh := range fst.shards {
		sh := sh
		node := ft.LAN
		if sh.wan {
			node = ft.WAN
		}
		sock := node.UDPSocket(fleetBasePort + sh.id)

		// Sender: advances the wheel one tick per wheelGran of sim time,
		// fires every due client, reschedules it. CPU charges from Send
		// may push the process past a tick boundary; next is absolute, so
		// the wheel never drifts from the clock.
		env.Spawn(shardName("fleet-send", sh.id), func(p *sim.Proc) {
			next := sim.Time(wheelGran)
			var wires []op
			for {
				if now := p.Now(); now < next {
					p.Sleep(next - now)
				}
				if next > sim.Time(stopAt) {
					return
				}
				// Phase 1 — book without parking: advance the wheel, build
				// and record every due call, reschedule each client. No
				// sim park happens in here, so a scenario callback (e.g. a
				// remount herd clearing the wheel) can never interleave
				// and see a client half-scheduled.
				sh.due = sh.wheel.advance(sh.due[:0])
				wires = wires[:0]
				for _, ci := range sh.due {
					wires = fst.buildOps(sh, int(ci), wires)
					sh.wheel.schedule(ci, sh.delayTicks(&sh.clients[ci]))
				}
				// Latency is measured from the scheduled tick, not the
				// (possibly CPU-delayed) actual send — the
				// coordinated-omission-safe origin.
				at := time.Duration(next)
				for _, o := range wires {
					sh.recordSend(o, at)
				}
				// Periodic expiry keeps the pending table bounded.
				if sh.wheel.tick%1024 == 0 {
					sh.sweep(time.Duration(next) - cfg.Timeout)
				}
				// Phase 2 — transmit (Send charges CPU and may park).
				for _, o := range wires {
					for d := 1; d < o.dups; d++ {
						sock.Send(p, serverID, server.NFSPort, o.wire.Clone())
					}
					sock.Send(p, serverID, server.NFSPort, o.wire)
				}
				next += sim.Time(wheelGran)
			}
		})

		// Receiver: demux replies by xid. Never blocks the send schedule.
		env.Spawn(shardName("fleet-recv", sh.id), func(p *sim.Proc) {
			var rep rpc.Reply
			for {
				dg, ok := sock.Recv(p)
				if !ok {
					return
				}
				d := xdr.NewDecoder(dg.Payload)
				rpcErr := true
				if err := rpc.DecodeReplyInto(d, &rep); err == nil {
					rpcErr = rep.Denied || rep.AcceptStat != rpc.Success
					sh.recordReply(rep.XID, p.Now(), rpcErr)
				}
				dg.Payload.Free()
			}
		})
	}

	// Scenario events, offset by warmup onto the run clock.
	sc := cfg.Scenario
	for _, rs := range sc.RateSteps {
		rs := rs
		env.At(sim.Time(cfg.Warmup+rs.At), func() { fst.setRate(rs.Mult) })
	}
	for _, st := range sc.Storms {
		st := st
		env.At(sim.Time(cfg.Warmup+st.Start), func() { fst.setStorm(st.Dups) })
		env.At(sim.Time(cfg.Warmup+st.End), func() { fst.setStorm(0) })
	}
	for _, rm := range sc.Remounts {
		rm := rm
		env.At(sim.Time(cfg.Warmup+rm.At), func() { fst.remountAll(rm.Jitter) })
	}
	if len(sc.Crashes) > 0 {
		shifted := &faultplan.Schedule{Seed: sc.Seed, Horizon: sim.Time(stopAt)}
		for _, c := range sc.Crashes {
			shifted.Crashes = append(shifted.Crashes, faultplan.Crash{
				Start: c.Start + sim.Time(cfg.Warmup),
				End:   c.End + sim.Time(cfg.Warmup),
			})
		}
		shifted.Apply(ft.Testbed(), srv)
	}

	env.Run(sim.Time(stopAt + drain))

	// Final sweep: anything still pending is a timeout (the drain outlived
	// both the RTT ceiling and the expiry window), then the audit closes.
	for _, sh := range fst.shards {
		sh.sweep(time.Duration(1 << 62))
	}
	res := fst.finish("sim", aud)
	res.NfsdCalls = srv.Calls()
	return res, nil
}

func shardName(prefix string, id int) string {
	return fmt.Sprintf("%s%d", prefix, id)
}
