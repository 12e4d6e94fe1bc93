package fleet

import (
	"fmt"
	"time"

	"renonfs/internal/faultplan"
	"renonfs/internal/netsim"
	"renonfs/internal/server"
	"renonfs/internal/sim"
	"renonfs/internal/xdr"
)

// Sim-engine constants. Client hosts stand in for thousands of mounts, so
// they get generous CPU — the rig measures the server and the network; the
// server runs at 40 MIPS, a late-era server. Shard sockets bind
// fleetBasePort+id on the LAN (or WAN) host.
const (
	fleetBasePort = 20000
	fleetHostMIPS = 2000
	serverMIPS    = 40
)

// RunSim drives the fleet against the simulated server on the fleet
// topology (server—router—LAN host, WAN host behind the 56 Kbit/s serial
// hop). Everything — interarrivals, scenario events, crashes — runs on the
// deterministic event clock, so a (config, seed) pair always produces the
// same Result.Fingerprint.
//
// The simulator runs one process at a time and none parks holding a shard
// lock (sendLoop and reply release it before sending or waiting), so the
// shared body's locking is uncontended here.
func RunSim(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	env := sim.New(cfg.Seed)
	defer env.Close()

	ft := netsim.BuildFleet(env,
		netsim.NodeConfig{Name: "lanfleet", MIPS: fleetHostMIPS},
		netsim.NodeConfig{Name: "wanfleet", MIPS: fleetHostMIPS},
		netsim.NodeConfig{Name: "server", MIPS: serverMIPS})

	fst, srv, err := newRun(cfg, env.Now)
	if err != nil {
		return nil, err
	}
	srv.AttachNode(ft.Server)
	srv.ServeUDP(server.NFSPort)

	serverID := ft.Server.ID
	for _, sh := range fst.shards {
		node := ft.LAN
		if sh.wan {
			node = ft.WAN
		}
		sock := node.UDPSocket(fleetBasePort + sh.id)

		// Send charges CPU and may carry the process past a tick boundary;
		// the ticks are absolute, so the wheel never drifts from the clock.
		env.Spawn(fmt.Sprintf("fleet-send%d", sh.id), func(p *sim.Proc) {
			fst.sendLoop(sh, func(tick time.Duration) {
				if now := p.Now(); now < tick {
					p.Sleep(tick - now)
				}
			}, func(o op) {
				for d := 1; d < o.dups; d++ {
					sock.Send(p, serverID, server.NFSPort, o.wire.Clone())
				}
				sock.Send(p, serverID, server.NFSPort, o.wire)
			})
		})
		env.Spawn(fmt.Sprintf("fleet-recv%d", sh.id), func(p *sim.Proc) {
			for {
				dg, ok := sock.Recv(p)
				if !ok {
					return
				}
				sh.reply(xdr.NewDecoder(dg.Payload), p.Now())
				dg.Payload.Free()
			}
		})
	}

	for _, ev := range fst.script() {
		env.At(ev.at, ev.fn)
	}
	stopAt := cfg.Warmup + cfg.Horizon
	if sc := cfg.Scenario; len(sc.Crashes) > 0 {
		shifted := &faultplan.Schedule{Seed: sc.Seed, Horizon: stopAt}
		for _, c := range sc.Crashes {
			shifted.Crashes = append(shifted.Crashes, faultplan.Crash{
				Start: c.Start + cfg.Warmup,
				End:   c.End + cfg.Warmup,
			})
		}
		shifted.Apply(ft.Testbed(), srv)
	}

	// Drain long enough that any reply still in flight at sender stop has
	// arrived or timed out before the final sweep (WAN RTTs are seconds).
	env.Run(stopAt + cfg.Timeout)
	res := fst.finish("sim")
	res.NfsdCalls = srv.Calls()
	return res, nil
}
