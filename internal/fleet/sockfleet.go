package fleet

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/nfsnet"
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
	epoch := time.Now()
	fst, srv, err := newRun(cfg, func() time.Duration { return time.Since(epoch) })
	if err != nil {
		return nil, err
	}
	s, err := nfsnet.Serve(srv, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}

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

	// The run clock starts once the sockets are up, so the senders do not
	// begin by catching up on ticks spent in setup.
	start := time.Now()
	now := func() time.Duration { return time.Since(start) }
	var closing atomic.Bool
	var sendWG, recvWG, drvWG sync.WaitGroup
	drvStop := make(chan struct{})

	for i, sh := range fst.shards {
		conn := conns[i]
		sendWG.Add(1)
		go func() {
			defer sendWG.Done()
			fst.sendLoop(sh, func(tick time.Duration) {
				if d := tick - now(); d > 0 {
					time.Sleep(d)
				}
			}, func(o op) {
				b := o.wire.Bytes()
				o.wire.Free()
				for d := 0; d < o.dups; d++ {
					conn.Write(b)
				}
			})
		}()

		recvWG.Add(1)
		go func() {
			defer recvWG.Done()
			buf := make([]byte, 65536)
			for {
				n, err := conn.Read(buf)
				if err != nil {
					if closing.Load() {
						return
					}
					continue
				}
				ch := mbuf.FromBytes(buf[:n])
				sh.reply(xdr.NewDecoder(ch), now())
				ch.Free()
			}
		}()
	}

	// Scenario driver: the shared script plus this engine's crash windows,
	// on one wall-clock timer goroutine.
	evs := fst.script()
	for _, c := range cfg.Scenario.Crashes {
		evs = append(evs,
			event{cfg.Warmup + c.Start, func() { s.SetDown(true) }},
			event{cfg.Warmup + c.End, func() {
				s.Crash()
				s.SetDown(false)
			}})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	drvWG.Add(1)
	go func() {
		defer drvWG.Done()
		for _, ev := range evs {
			if d := ev.at - now(); d > 0 {
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
	s.Close()

	res := fst.finish("sock")
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
