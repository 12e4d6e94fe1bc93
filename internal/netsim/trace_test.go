package netsim

import (
	"strings"
	"testing"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/metrics"
	"renonfs/internal/sim"
)

// collect installs a FuncTracer on nt that appends every packet event to
// the returned slice.
func collect(nt *Net) *[]TraceEvent {
	var evs []TraceEvent
	nt.SetTracer(metrics.FuncTracer(func(ev metrics.Event) {
		evs = append(evs, ev.(TraceEvent))
	}))
	return &evs
}

func TestTracerSeesLookupExchange(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	nt := New(env)
	a := nt.AddNode(NodeConfig{Name: "a"})
	b := nt.AddNode(NodeConfig{Name: "b"})
	nt.Connect(a, b, quietEthernet("eth"))
	nt.ComputeRoutes()
	events := collect(nt)

	sa := a.UDPSocket(1001)
	sb := b.UDPSocket(2049)
	env.Spawn("server", func(p *sim.Proc) {
		if dg, ok := sb.Recv(p); ok {
			sb.Send(p, dg.Src, dg.SrcPort, mbuf.FromBytes([]byte("reply")))
		}
	})
	env.Spawn("client", func(p *sim.Proc) {
		sa.Send(p, b.ID, 2049, mbuf.FromBytes([]byte("request")))
		sa.Recv(p)
	})
	env.RunAll()

	// Expect send(a), recv(b), send(b), recv(a) in order.
	var kinds []string
	for _, ev := range *events {
		kinds = append(kinds, ev.Where+":"+ev.Op.String())
	}
	want := []string{"a:send", "b:recv", "b:send", "a:recv"}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events = %v, want %v", kinds, want)
		}
	}
	// Timestamps are nondecreasing.
	for i := 1; i < len(*events); i++ {
		if (*events)[i].At < (*events)[i-1].At {
			t.Fatal("trace times not monotone")
		}
	}
}

func TestTracerForwardAndFragments(t *testing.T) {
	env := sim.New(2)
	defer env.Close()
	tb := Build(env, TopoRing, NodeConfig{}, NodeConfig{})
	events := collect(tb.Net)
	sc := tb.Client.UDPSocket(1001)
	ss := tb.Server.UDPSocket(2049)
	env.Spawn("rx", func(p *sim.Proc) { ss.Recv(p) })
	env.Spawn("tx", func(p *sim.Proc) {
		sc.Send(p, tb.Server.ID, 2049, mbuf.FromBytes(make([]byte, 8192)))
	})
	env.Run(10 * time.Second)

	sends, fwds, recvs, frags := 0, 0, 0, 0
	for _, ev := range *events {
		switch ev.Op {
		case TraceSend:
			sends++
		case TraceFwd:
			fwds++
		case TraceRecv:
			recvs++
		}
		if ev.FragOff > 0 {
			frags++
		}
	}
	if sends != 6 { // 8K datagram = 6 fragments on the Ethernet
		t.Fatalf("sends = %d, want 6", sends)
	}
	if fwds < 12 { // two routers forward each fragment
		t.Fatalf("forwards = %d, want >= 12", fwds)
	}
	if recvs != 6 || frags == 0 {
		t.Fatalf("recvs=%d frags=%d", recvs, frags)
	}
}

func TestTraceEventString(t *testing.T) {
	ev := TraceEvent{
		At: 1500 * time.Millisecond, Where: "eth0", Op: TraceLoss,
		Proto: ProtoUDP, Src: 0, SPort: 1001, Dst: 1, DPort: 2049,
		FragOff: 2960, FragLen: 1480, More: true, DgramID: 42,
	}
	if ev.Kind() != "packet" {
		t.Fatalf("Kind() = %q, want packet", ev.Kind())
	}
	line := ev.String()
	for _, want := range []string{"1.500000", "eth0", "loss", "udp", "0:1001 > 1:2049", "frag@2960+"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
}
