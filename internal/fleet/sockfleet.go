package fleet

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"renonfs/internal/check"
	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/nfsnet"
	"renonfs/internal/rpc"
	"renonfs/internal/server"
	"renonfs/internal/xdr"
)

// RunSock drives the fleet over real UDP sockets against internal/nfsnet:
// one connection per shard (hundreds of clients multiplexed per socket by
// xid), a sender goroutine pacing the shard's timing wheel on the wall
// clock, and a receiver goroutine demuxing replies. Scenario events run on
// wall-clock timers — crash windows through the frontend's SetDown/Crash,
// so reboot quiesce and TCP aborts behave exactly as production would.
//
// Unlike RunSim this engine is not bit-deterministic (the wall clock
// isn't), but the scenario schedule itself still is — a failing run prints
// a seed whose script replays exactly.
func RunSock(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	fsys := memfs.New(1, nil, nil)
	opts := server.Reno()
	opts.NFSDs = cfg.NFSDs
	opts.Readers = cfg.Readers
	opts.DupCacheSize = cfg.DupCacheSize
	opts.NoReusePort = cfg.NoReusePort
	srv := server.New(fsys, opts)
	epoch := time.Now()
	aud := check.New(func() time.Duration { return time.Since(epoch) })
	aud.SetExactlyOnce(cfg.Strict)
	srv.Tracer = aud.Tracer("server")

	pre, err := preloadFS(fsys, cfg.Files)
	if err != nil {
		return nil, err
	}
	s, err := nfsnet.Serve(srv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fst := newFleetState(cfg, aud, pre)

	conns := make([]*net.UDPConn, len(fst.shards))
	for i := range fst.shards {
		c, err := net.Dial("udp", s.UDPAddr())
		if err != nil {
			for _, pc := range conns[:i] {
				pc.Close()
			}
			s.Close()
			return nil, fmt.Errorf("fleet: dial shard %d: %w", i, err)
		}
		conns[i] = c.(*net.UDPConn)
	}

	start := time.Now()
	now := func() time.Duration { return time.Since(start) }
	stopAt := cfg.Warmup + cfg.Horizon
	var closing atomic.Bool
	var sendWG, recvWG, drvWG sync.WaitGroup
	drvStop := make(chan struct{})

	for i, sh := range fst.shards {
		sh, conn := sh, conns[i]

		sendWG.Add(1)
		go func() {
			defer sendWG.Done()
			var ops []op
			var wires []op
			tick := time.Duration(wheelGran)
			for {
				if d := tick - now(); d > 0 {
					time.Sleep(d)
				}
				if tick > stopAt {
					return
				}
				// Book everything under the lock (pending entry + auditor
				// events precede the datagram, so a reply can never race
				// its own CallSent), then write outside it.
				sh.mu.Lock()
				sh.due = sh.wheel.advance(sh.due[:0])
				wires = wires[:0]
				for _, ci := range sh.due {
					ops = fst.buildOps(sh, int(ci), ops[:0])
					for _, o := range ops {
						sh.recordSend(o, tick)
						wires = append(wires, o)
					}
					sh.wheel.schedule(ci, sh.delayTicks(&sh.clients[ci]))
				}
				if sh.wheel.tick%1024 == 0 {
					sh.sweep(now() - cfg.Timeout)
				}
				sh.mu.Unlock()
				for _, o := range wires {
					b := o.wire.Bytes()
					o.wire.Free()
					for d := 0; d < o.dups; d++ {
						conn.Write(b)
					}
				}
				tick += wheelGran
			}
		}()

		recvWG.Add(1)
		go func() {
			defer recvWG.Done()
			buf := make([]byte, 65536)
			var rep rpc.Reply
			for {
				n, err := conn.Read(buf)
				if err != nil {
					if closing.Load() {
						return
					}
					continue
				}
				ch := mbuf.FromBytes(buf[:n])
				if err := rpc.DecodeReplyInto(xdr.NewDecoder(ch), &rep); err == nil {
					rpcErr := rep.Denied || rep.AcceptStat != rpc.Success
					sh.mu.Lock()
					sh.recordReply(rep.XID, now(), rpcErr)
					sh.mu.Unlock()
				}
				ch.Free()
			}
		}()
	}

	// Scenario driver: the same script the simulator interprets, on
	// wall-clock timers relative to the end of warmup.
	drvWG.Add(1)
	go func() {
		defer drvWG.Done()
		type event struct {
			at time.Duration
			fn func()
		}
		var evs []event
		sc := cfg.Scenario
		for _, rs := range sc.RateSteps {
			rs := rs
			evs = append(evs, event{cfg.Warmup + rs.At, func() { fst.setRate(rs.Mult) }})
		}
		for _, st := range sc.Storms {
			st := st
			evs = append(evs, event{cfg.Warmup + st.Start, func() { fst.setStorm(st.Dups) }})
			evs = append(evs, event{cfg.Warmup + st.End, func() { fst.setStorm(0) }})
		}
		for _, rm := range sc.Remounts {
			rm := rm
			evs = append(evs, event{cfg.Warmup + rm.At, func() { fst.remountAll(rm.Jitter) }})
		}
		for _, c := range sc.Crashes {
			c := c
			evs = append(evs, event{cfg.Warmup + time.Duration(c.Start), func() { s.SetDown(true) }})
			evs = append(evs, event{cfg.Warmup + time.Duration(c.End), func() {
				s.Crash()
				s.SetDown(false)
			}})
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
		for _, ev := range evs {
			d := ev.at - now()
			if d > 0 {
				select {
				case <-drvStop:
					return
				case <-time.After(d):
				}
			}
			ev.fn()
		}
	}()

	sendWG.Wait()
	// Short drain: loopback RTTs are microseconds, so anything unanswered
	// after this is genuinely lost (dropped by a crash window or shed by a
	// saturated server) and is swept as a timeout.
	time.Sleep(300 * time.Millisecond)
	close(drvStop)
	drvWG.Wait()
	closing.Store(true)
	for _, c := range conns {
		c.Close()
	}
	recvWG.Wait()
	for _, sh := range fst.shards {
		sh.mu.Lock()
		sh.sweep(time.Duration(1 << 62))
		sh.mu.Unlock()
	}
	s.Close()

	res := fst.finish("sock", aud)
	snap := srv.Metrics.Snapshot()
	for name, v := range snap.Counters {
		switch {
		case strings.HasPrefix(name, "rpc.reader.") && strings.HasSuffix(name, ".reads"):
			res.ReaderReads += v
		case strings.HasPrefix(name, "rpc.reader.") && strings.HasSuffix(name, ".fast"):
			res.ReaderFast += v
		case strings.HasPrefix(name, "rpc.reader.") && strings.HasSuffix(name, ".inline"):
			res.ReaderInline += v
		case strings.HasPrefix(name, "rpc.nfsd.") && strings.HasSuffix(name, ".calls"):
			res.NfsdCalls += v
		}
	}
	res.FastCalls = snap.Counters["rpc.fastpath.calls"]
	res.FastFallbacks = snap.Counters["rpc.fastpath.fallbacks"]
	res.SendBatches = snap.Counters["rpc.send.batches"]
	res.SendMsgs = snap.Counters["rpc.send.batched_msgs"]
	res.PerReaderReads = make([]int64, s.Readers())
	for i := range res.PerReaderReads {
		res.PerReaderReads[i] = snap.Counters[fmt.Sprintf("rpc.reader.%d.reads", i)]
	}
	return res, nil
}
