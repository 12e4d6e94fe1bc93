package tcpsim

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/netsim"
	"renonfs/internal/rtt"
	"renonfs/internal/sim"
)

const ms = time.Millisecond

func testbed(t *testing.T, seed int64, topo netsim.Topology, mutate func(cfg *netsim.LinkConfig)) (*sim.Env, *Stack, *Stack) {
	t.Helper()
	env := sim.New(seed)
	t.Cleanup(env.Close)
	nt := netsim.New(env)
	a := nt.AddNode(netsim.NodeConfig{Name: "a"})
	b := nt.AddNode(netsim.NodeConfig{Name: "b"})
	cfg := netsim.Ethernet("eth")
	cfg.LossProb = 0
	cfg.BgUtil = 0
	if mutate != nil {
		mutate(&cfg)
	}
	nt.Connect(a, b, cfg)
	nt.ComputeRoutes()
	return env, NewStack(a), NewStack(b)
}

// stream is a connection's reader on Serve: the bytes it read, and the
// instant its stream ended (eof).
type stream struct {
	got []byte
	eof bool
	end sim.Time
}

// read makes s the reader of c.
func (s *stream) read(c *Conn) {
	c.Serve(func(data *mbuf.Chain) bool {
		s.got = append(s.got, data.Bytes()...)
		data.Free()
		return true
	}, func() { s.eof, s.end = true, c.env.Now() })
}

// accept serves l and returns the stream its connection is read into.
func accept(l *Listener) *stream {
	s := &stream{}
	l.Serve(s.read)
	return s
}

// transfer sends payload a->b and returns what b received.
func transfer(t *testing.T, env *sim.Env, sa, sb *Stack, payload []byte, horizon sim.Time) []byte {
	t.Helper()
	rx := accept(sb.Listen(2049))
	env.Spawn("tx", func(p *sim.Proc) {
		c, err := sa.Dial(p, sb.Node().ID, 2049)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if err := c.Send(p, mbuf.FromBytes(payload)); err != nil {
			t.Errorf("send: %v", err)
		}
		c.Close()
	})
	env.Run(horizon)
	if !rx.eof {
		t.Fatalf("receiver never saw EOF (got %d/%d bytes)", len(rx.got), len(payload))
	}
	return rx.got
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + i/257)
	}
	return b
}

func TestHandshakeAndSmallTransfer(t *testing.T) {
	env, sa, sb := testbed(t, 1, netsim.TopoLAN, nil)
	payload := []byte("NFS over TCP works fine, actually")
	got := transfer(t, env, sa, sb, payload, 10*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
}

func TestBulkTransferIntegrity(t *testing.T) {
	env, sa, sb := testbed(t, 2, netsim.TopoLAN, nil)
	payload := pattern(200 * 1024)
	got := transfer(t, env, sa, sb, payload, 5*time.Minute)
	if !bytes.Equal(got, payload) {
		t.Fatalf("corrupted transfer: got %d bytes, want %d", len(got), len(payload))
	}
}

func TestTransferUnderLoss(t *testing.T) {
	env, sa, sb := testbed(t, 3, netsim.TopoLAN, func(cfg *netsim.LinkConfig) {
		cfg.LossProb = 0.05
	})
	payload := pattern(100 * 1024)
	rx := accept(sb.Listen(2049))
	var txConn *Conn
	env.Spawn("tx", func(p *sim.Proc) {
		c, err := sa.Dial(p, sb.Node().ID, 2049)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		txConn = c
		c.Send(p, mbuf.FromBytes(payload))
		c.Close()
	})
	env.Run(10 * time.Minute)
	if !bytes.Equal(rx.got, payload) {
		t.Fatalf("loss recovery failed: got %d bytes, want %d", len(rx.got), len(payload))
	}
	if txConn.Stats.Retransmits == 0 {
		t.Fatal("no retransmissions under 5% loss")
	}
}

func TestFastRetransmitFires(t *testing.T) {
	env, sa, sb := testbed(t, 5, netsim.TopoLAN, func(cfg *netsim.LinkConfig) {
		cfg.LossProb = 0.02
	})
	payload := pattern(300 * 1024)
	accept(sb.Listen(2049))
	var txConn *Conn
	env.Spawn("tx", func(p *sim.Proc) {
		c, err := sa.Dial(p, sb.Node().ID, 2049)
		if err != nil {
			return
		}
		txConn = c
		c.Send(p, mbuf.FromBytes(payload))
		c.Close()
	})
	env.Run(10 * time.Minute)
	if txConn == nil || txConn.Stats.FastRetransmits == 0 {
		t.Fatalf("expected fast retransmits on a 2%% lossy bulk transfer; stats: %+v", txConn.Stats)
	}
}

func TestBidirectional(t *testing.T) {
	env, sa, sb := testbed(t, 7, netsim.TopoLAN, nil)
	req := pattern(5000)
	var gotReq, gotResp []byte
	sb.Listen(2049).Serve(func(c *Conn) {
		c.Serve(func(data *mbuf.Chain) bool {
			gotReq = append(gotReq, data.Bytes()...)
			data.Free()
			if len(gotReq) < len(req) {
				return true
			}
			env.Spawn("reply", func(p *sim.Proc) {
				c.Send(p, mbuf.FromBytes([]byte("response!")))
				c.Close()
			})
			return false
		}, func() {})
	})
	env.Spawn("client", func(p *sim.Proc) {
		c, err := sa.Dial(p, sb.Node().ID, 2049)
		if err != nil {
			return
		}
		c.Serve(func(data *mbuf.Chain) bool {
			gotResp = append(gotResp, data.Bytes()...)
			data.Free()
			return true
		}, c.Close)
		c.Send(p, mbuf.FromBytes(req))
	})
	env.Run(time.Minute)
	if !bytes.Equal(gotReq, req) {
		t.Fatal("request corrupted")
	}
	if string(gotResp) != "response!" {
		t.Fatalf("response = %q", gotResp)
	}
}

func TestThroughputRespectsBandwidth(t *testing.T) {
	// 100 KB over a 56 Kbit/s line takes at least 100e3*8/56e3 ~ 14.6 s.
	env := sim.New(11)
	defer env.Close()
	tb := netsim.Build(env, netsim.TopoSlow, netsim.NodeConfig{}, netsim.NodeConfig{})
	sa, sb := NewStack(tb.Client), NewStack(tb.Server)
	payload := pattern(100 * 1024)
	start := env.Now()
	rx := accept(sb.Listen(2049))
	env.Spawn("tx", func(p *sim.Proc) {
		c, err := sa.Dial(p, tb.Server.ID, 2049)
		if err != nil {
			return
		}
		c.Send(p, mbuf.FromBytes(payload))
		c.Close()
	})
	env.Run(30 * time.Minute)
	if !rx.eof || len(rx.got) != len(payload) {
		t.Fatal("transfer never completed")
	}
	elapsed := rx.end - start
	if elapsed < 14*time.Second {
		t.Fatalf("transfer finished in %v, faster than the line rate allows", elapsed)
	}
	if elapsed > 10*time.Minute {
		t.Fatalf("transfer took %v, absurdly slow", elapsed)
	}
}

func TestRTTEstimator(t *testing.T) {
	c := &Conn{est: rtt.Estimator{Factor: 4}}
	if r := c.curRTOForTest(); r != 3*time.Second {
		t.Fatalf("rto before any sample = %v, want the 3s BSD default", r)
	}
	c.est.Sample(100 * ms)
	if c.est.SRTT != 100*ms || c.est.RTTVar != 50*ms {
		t.Fatalf("first sample: srtt=%v rttvar=%v", c.est.SRTT, c.est.RTTVar)
	}
	if r := c.est.RTO(0); r != 100*ms+4*50*ms {
		t.Fatalf("rto = %v, want A+4D = 300ms", r)
	}
	// Repeated identical samples shrink the variance toward zero.
	for i := 0; i < 50; i++ {
		c.est.Sample(100 * ms)
	}
	if c.est.SRTT < 95*ms || c.est.SRTT > 105*ms {
		t.Fatalf("srtt drifted: %v", c.est.SRTT)
	}
	if c.est.RTTVar > 5*ms {
		t.Fatalf("rttvar did not converge: %v", c.est.RTTVar)
	}
	// A spike raises both the mean and the deviation.
	before := c.curRTOForTest()
	c.est.Sample(2 * time.Second)
	if c.curRTOForTest() <= before {
		t.Fatal("RTO did not react to an RTT spike")
	}
}

// curRTOForTest exposes the clamped RTO without a live connection.
func (c *Conn) curRTOForTest() sim.Time {
	if c.backoff == 0 {
		c.backoff = 1
	}
	return c.curRTO()
}

func TestDialTimeout(t *testing.T) {
	env := sim.New(13)
	defer env.Close()
	nt := netsim.New(env)
	a := nt.AddNode(netsim.NodeConfig{Name: "a"})
	b := nt.AddNode(netsim.NodeConfig{Name: "b"})
	cfg := netsim.Ethernet("eth")
	cfg.LossProb = 1.0 // black hole
	nt.Connect(a, b, cfg)
	nt.ComputeRoutes()
	sa := NewStack(a)
	var dialErr error
	env.Spawn("tx", func(p *sim.Proc) {
		_, dialErr = sa.Dial(p, b.ID, 2049)
	})
	env.Run(3 * time.Minute)
	if dialErr != ErrTimeout {
		t.Fatalf("dial err = %v, want ErrTimeout", dialErr)
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	env, sa, sb := testbed(t, 17, netsim.TopoLAN, nil)
	accept(sb.Listen(2049))
	var sendErr error
	env.Spawn("tx", func(p *sim.Proc) {
		c, err := sa.Dial(p, sb.Node().ID, 2049)
		if err != nil {
			return
		}
		c.Close()
		sendErr = c.Send(p, mbuf.FromBytes([]byte("late")))
	})
	env.Run(time.Minute)
	if sendErr != ErrClosed {
		t.Fatalf("send after close = %v, want ErrClosed", sendErr)
	}
}

func TestMSSFromPathMTU(t *testing.T) {
	env := sim.New(19)
	defer env.Close()
	tb := netsim.Build(env, netsim.TopoSlow, netsim.NodeConfig{}, netsim.NodeConfig{})
	sa := NewStack(tb.Client)
	sb := NewStack(tb.Server)
	var mss int // the largest segment the reader is handed
	sb.Listen(2049).Serve(func(c *Conn) {
		c.Serve(func(data *mbuf.Chain) bool {
			mss = max(mss, data.Len())
			data.Free()
			return true
		}, func() {})
	})
	env.Spawn("tx", func(p *sim.Proc) {
		c, err := sa.Dial(p, tb.Server.ID, 2049)
		if err != nil {
			return
		}
		c.Send(p, mbuf.FromBytes(pattern(3000)))
	})
	env.Run(time.Minute)
	if mss != 1006-20 {
		t.Fatalf("MSS = %d, want %d (serial line MTU minus TCP header)", mss, 1006-20)
	}
}

func TestDeterministicTransfers(t *testing.T) {
	run := func() (int, int) {
		env := sim.New(99)
		defer env.Close()
		nt := netsim.New(env)
		a := nt.AddNode(netsim.NodeConfig{Name: "a"})
		b := nt.AddNode(netsim.NodeConfig{Name: "b"})
		cfg := netsim.Ethernet("eth")
		cfg.LossProb = 0.03
		nt.Connect(a, b, cfg)
		nt.ComputeRoutes()
		sa, sb := NewStack(a), NewStack(b)
		rx := accept(sb.Listen(2049))
		var rtx int
		env.Spawn("tx", func(p *sim.Proc) {
			c, err := sa.Dial(p, b.ID, 2049)
			if err != nil {
				return
			}
			c.Send(p, mbuf.FromBytes(pattern(64*1024)))
			c.Close()
			rtx = c.Stats.Retransmits
		})
		env.Run(5 * time.Minute)
		return len(rx.got), rtx
	}
	rx1, rtx1 := run()
	rx2, rtx2 := run()
	if rx1 != rx2 || rtx1 != rtx2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", rx1, rtx1, rx2, rtx2)
	}
	if rx1 != 64*1024 {
		t.Fatalf("rx = %d", rx1)
	}
}

// TestStreamPropertyUnderRandomConditions: for arbitrary payload sizes and
// loss rates, the byte stream is delivered exactly once, in order,
// unmodified.
func TestStreamPropertyUnderRandomConditions(t *testing.T) {
	f := func(seed int64, sizeSel, lossSel uint8) bool {
		size := 1 + int(sizeSel)*977       // up to ~250 KB
		loss := float64(lossSel%8) * 0.012 // 0 .. 8.4%
		env := sim.New(seed)
		defer env.Close()
		nt := netsim.New(env)
		a := nt.AddNode(netsim.NodeConfig{Name: "a"})
		b := nt.AddNode(netsim.NodeConfig{Name: "b"})
		cfg := netsim.Ethernet("eth")
		cfg.LossProb = loss
		cfg.BgUtil = 0
		nt.Connect(a, b, cfg)
		nt.ComputeRoutes()
		sa, sb := NewStack(a), NewStack(b)
		payload := pattern(size)
		rx := accept(sb.Listen(2049))
		env.Spawn("tx", func(p *sim.Proc) {
			c, err := sa.Dial(p, b.ID, 2049)
			if err != nil {
				return
			}
			c.Send(p, mbuf.FromBytes(payload))
			c.Close()
		})
		env.Run(30 * time.Minute)
		return rx.eof && bytes.Equal(rx.got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestResetOnForgottenConnection: when the peer silently loses its
// connection state (Abort sends nothing — the model of a server reboot),
// our next transmission hits its listener as a segment for an unknown
// connection. The listener must answer RST and that RST must tear our
// endpoint down, so our reader sees the stream end instead of waiting
// forever.
func TestResetOnForgottenConnection(t *testing.T) {
	env, sa, sb := testbed(t, 7, 0, nil)
	var srv *Conn
	sb.Listen(2049).Serve(func(c *Conn) { srv = c })
	var sawReset bool
	rx := &stream{}
	env.Spawn("client", func(p *sim.Proc) {
		c, err := sa.Dial(p, sb.Node().ID, 2049)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		rx.read(c)
		if err := c.Send(p, mbuf.FromBytes([]byte("ping"))); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		p.Sleep(time.Second)
		// The server forgets the connection without telling us.
		srv.Abort()
		// Our next transmission draws an RST from the listener.
		_ = c.Send(p, mbuf.FromBytes([]byte("hello?")))
		p.Sleep(5 * time.Second)
		sawReset = c.state == stateClosed
	})
	env.Run(30 * time.Second)
	if !sawReset {
		t.Fatal("client connection not reset after peer forgot it")
	}
	if !rx.eof || len(rx.got) != 0 {
		t.Fatalf("reader of a reset connection: eof %v, %d bytes; want eof and none", rx.eof, len(rx.got))
	}
}

// TestNoRSTStorm: an RST must never be answered with another RST (the
// classic reflection loop). Two stacks that both forgot a connection
// exchange at most one reset.
func TestNoRSTStorm(t *testing.T) {
	env, sa, sb := testbed(t, 9, 0, nil)
	sb.Listen(2049).Serve(func(*Conn) {})
	env.Spawn("client", func(p *sim.Proc) {
		c, err := sa.Dial(p, sb.Node().ID, 2049)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if err := c.Send(p, mbuf.FromBytes([]byte("x"))); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	env.Run(2 * time.Second)
	before := sa.Node().Stats.PktsOut + sb.Node().Stats.PktsOut
	env.Run(60 * time.Second)
	after := sa.Node().Stats.PktsOut + sb.Node().Stats.PktsOut
	// An idle established connection exchanges nothing; if RSTs reflected
	// we would see unbounded traffic here.
	if after-before > 4 {
		t.Fatalf("idle connection produced %d frames in a minute", after-before)
	}
}

// A lone data segment that the receiver has nothing to piggyback on is
// acknowledged by the receiver's next slow timeout (4.3BSD's delayed ACK):
// within one Tick of its arrival the sender has it acknowledged, with no
// retransmission and the retransmit timer stopped, well before its RTO.
func TestSlowTimeoutFlushesDelayedAck(t *testing.T) {
	env, sa, sb := testbed(t, 19, netsim.TopoLAN, nil)
	accept(sb.Listen(2049))
	var c *Conn
	var sentAt sim.Time
	env.Spawn("tx", func(p *sim.Proc) {
		var err error
		if c, err = sa.Dial(p, sb.Node().ID, 2049); err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		p.Sleep(Tick / 3) // away from the handshake's own acknowledgments
		sentAt = p.Now()
		c.Send(p, mbuf.FromBytes([]byte("one lone request")))
	})
	env.Run(Tick)
	if sentAt == 0 {
		t.Fatal("no request sent")
	}
	env.Run(sentAt + Tick + 50*ms)
	if c.flight() != 0 || c.rtxDeadline != 0 || c.Stats.Retransmits != 0 {
		t.Fatalf("one Tick after the send: %d bytes unacknowledged, retransmit timer %v, %d retransmissions",
			c.flight(), c.rtxDeadline, c.Stats.Retransmits)
	}
}
