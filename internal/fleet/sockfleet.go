package fleet

import (
	"context"
	"fmt"
	"strings"
	"time"

	"renonfs/internal/lockstat"
	"renonfs/internal/netsim"
	"renonfs/internal/nfsnet"
	"renonfs/internal/sim"
)

// RunSock drives the fleet over real UDP sockets against internal/nfsnet:
// the shard processes RunSim runs, on a sim.Env driven by RunWall, one
// connected socket per shard (hundreds of clients multiplexed per socket by
// xid). Crash windows go through the frontend's SetDown/Crash, so reboot
// quiesce and TCP aborts behave exactly as production would.
//
// Unlike RunSim this engine is not bit-deterministic (the wall clock
// isn't), but the scenario schedule itself still is — a failing run prints
// a seed whose script replays exactly. The auditor keeps a wall clock of
// its own: the frontend's goroutines emit server events into it, and the
// Env's clock may be read only on its goroutine.
func RunSock(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	epoch := time.Now()
	fst, srv, err := newRun(cfg, func() time.Duration { return time.Since(epoch) })
	if err != nil {
		return nil, err
	}
	locks := lockstat.Stats()
	s, err := nfsnet.Serve(srv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := sim.New(cfg.Seed)
	defer env.Close()
	socks := make([]netsim.Endpoint, len(fst.shards))
	for i := range socks {
		w, err := netsim.DialWall(env, s.UDPAddr())
		if err != nil {
			for _, w := range socks[:i] {
				w.Close()
			}
			s.Close()
			return nil, fmt.Errorf("fleet: dial shard %d: %w", i, err)
		}
		socks[i] = w
	}

	fst.start(env, socks, 0)
	for _, c := range cfg.Scenario.Crashes {
		env.At(cfg.Warmup+c.Start, func() { s.SetDown(true) })
		env.At(cfg.Warmup+c.End, func() {
			s.Crash()
			s.SetDown(false)
		})
	}
	// Short drain: loopback RTTs are microseconds, so anything unanswered
	// after this is genuinely lost (dropped by a crash window or shed by a
	// saturated server) and is swept as a timeout. The run clock starts
	// once the sockets are up, so the senders do not begin by catching up
	// on ticks spent in setup.
	env.At(fst.winEnd+300*time.Millisecond, env.Stop)
	env.RunWall(context.Background())
	for _, w := range socks {
		w.Close()
	}
	s.PublishStats() // the kernel's drop count needs the sockets open
	s.Close()

	res := fst.finish("sock")
	res.Locks = lockstat.Since(locks)
	snap := srv.Metrics.Snapshot()
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "rpc.nfsd.") && strings.HasSuffix(name, ".calls") {
			res.NfsdCalls += v
		}
	}
	res.PerReaderReads = make([]int64, s.Readers())
	for i := range res.PerReaderReads {
		reader := func(c string) int64 { return snap.Counters[fmt.Sprintf("rpc.reader.%d.%s", i, c)] }
		res.PerReaderReads[i] = reader("reads")
		res.ReaderReads += reader("reads")
		res.ReaderFast += reader("fast")
		res.ReaderInline += reader("inline")
		res.ReaderWakeups += reader("wakeups")
	}
	res.FastCalls = snap.Counters["rpc.fastpath.calls"]
	res.SendBatches = snap.Counters["rpc.send.batches"]
	res.SendMsgs = snap.Counters["rpc.send.batched_msgs"]
	res.KernelDrops = snap.Counters["rpc.udp.kernel_drops"]
	return res, nil
}
