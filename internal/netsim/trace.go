package netsim

import (
	"fmt"

	"renonfs/internal/metrics"
	"renonfs/internal/sim"
)

// TraceKind classifies a packet trace event.
type TraceKind int

// Trace event kinds.
const (
	TraceSend  TraceKind = iota // host transmitted a fragment
	TraceRecv                   // host received a fragment for itself
	TraceFwd                    // router forwarded a fragment
	TraceLoss                   // link dropped the frame (random loss)
	TraceQDrop                  // link queue overflowed (drop tail)
)

func (k TraceKind) String() string {
	switch k {
	case TraceSend:
		return "send"
	case TraceRecv:
		return "recv"
	case TraceFwd:
		return "fwd"
	case TraceLoss:
		return "loss"
	case TraceQDrop:
		return "qdrop"
	default:
		return "?"
	}
}

// TraceEvent describes one packet-level occurrence, tcpdump-style. It is a
// metrics.Event of kind "packet", so the network reports on the same
// lifecycle Tracer the transports and server use.
type TraceEvent struct {
	At    sim.Time
	Where string // node or link name
	Op    TraceKind
	Proto uint8
	Src   NodeID
	SPort int
	Dst   NodeID
	DPort int
	// Fragment geometry within the datagram.
	FragOff, FragLen int
	More             bool
	DgramID          uint32
}

// Kind implements metrics.Event.
func (TraceEvent) Kind() string { return "packet" }

// String renders the event as one tcpdump-like line.
func (ev TraceEvent) String() string {
	proto := "udp"
	if ev.Proto == ProtoTCP {
		proto = "tcp"
	}
	frag := ""
	if ev.FragOff > 0 || ev.More {
		frag = fmt.Sprintf(" frag@%d%s", ev.FragOff, map[bool]string{true: "+", false: ""}[ev.More])
	}
	return fmt.Sprintf("%12.6f %-8s %-5s %s %d:%d > %d:%d len %d id %d%s",
		float64(ev.At)/1e9, ev.Where, ev.Op, proto,
		ev.Src, ev.SPort, ev.Dst, ev.DPort, ev.FragLen, ev.DgramID, frag)
}

// SetTracer installs a packet tracer on every node and link of the
// network (nil uninstalls). Install before traffic starts.
func (nt *Net) SetTracer(tr metrics.Tracer) { nt.tracer = tr }

// trace emits an event if a tracer is installed.
func (nt *Net) trace(at sim.Time, where string, op TraceKind, pk packet) {
	if nt.tracer == nil {
		return
	}
	nt.tracer.Event(TraceEvent{
		At: at, Where: where, Op: op,
		Proto: pk.dg.Proto,
		Src:   pk.dg.Src, SPort: pk.dg.SrcPort,
		Dst: pk.dg.Dst, DPort: pk.dg.DstPort,
		FragOff: pk.frag.Off, FragLen: pk.frag.Len, More: pk.frag.More,
		DgramID: pk.dg.ID,
	})
}
