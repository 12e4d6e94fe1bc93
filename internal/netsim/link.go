package netsim

import (
	"math/rand"
	"slices"
	"time"

	"renonfs/internal/sim"
)

// LinkConfig describes one network segment.
type LinkConfig struct {
	Name string
	// BitsPerSec is the raw bandwidth.
	BitsPerSec int64
	// MTU is the largest frame (including the 34-byte framing/IP overhead)
	// the link carries.
	MTU int
	// PropDelay is the one-way propagation delay.
	PropDelay sim.Time
	// QueueLen bounds the transmit queue (drop-tail). Zero means 32.
	QueueLen int
	// LossProb is the per-frame random loss probability, modelling cross
	// traffic, collisions and noisy serial lines.
	LossProb float64
	// BgUtil in [0,1) models background cross-traffic: each frame may wait
	// behind an exponentially distributed burst of foreign traffic.
	BgUtil float64
}

// LinkStats are cumulative per-direction counters.
type LinkStats struct {
	Frames     int
	Bytes      int
	Lost       int // random loss
	QueueDrops int // drop-tail overflow
	// Fault-injection counters (frames affected by an installed FaultHook).
	FaultDrops  int
	FaultDups   int
	FaultCorrup int
}

// FaultVerdict is a fault-injection decision for one frame about to leave
// a link. The zero value means "deliver normally".
type FaultVerdict struct {
	// Drop discards the frame (loss bursts, flaps, partitions).
	Drop bool
	// Duplicate delivers a second copy of the frame.
	Duplicate bool
	// Corrupt flips bytes somewhere in the frame's datagram: the receiving
	// host's transport checksum will reject the whole datagram on arrival.
	Corrupt bool
	// ExtraDelay is added to the propagation delay, reordering the frame
	// past later traffic.
	ExtraDelay sim.Time
}

// FaultHook decides the fate of each frame a link transmits. It runs in
// the link's transmitter with the simulation's seeded RNG, so a schedule of
// faults is exactly reproducible from the run's seed. now is the virtual
// time at end of serialization.
type FaultHook func(now sim.Time, rng *rand.Rand) FaultVerdict

// Link is one direction of a connection. Frames wait in a finite drop-tail
// queue, serialize at link bandwidth (plus background-traffic waiting) and
// arrive at the far node after the propagation delay.
//
// The transmitter is a chain of events, not a process. Each of its waits is
// the Sleep a transmitter process would make: Advance moves the clock in
// place when nothing else could run first, and otherwise run is scheduled
// for the wake-up, where the process's resume event would have been. So is
// the start of a frame that finds the link idle. Every event, random draw
// and fault verdict keeps the time and order a process would give it.
type Link struct {
	cfg   LinkConfig
	env   *sim.Env
	net   *Net
	from  *Node
	to    *Node
	fault FaultHook
	Stat  LinkStats

	q        sim.FIFO[packet] // transmit queue, at most QueueLen frames
	busy     bool             // run is scheduled or running
	stage    int              // where run picks up: txNext, txSerialize or txSent
	cur      packet           // the frame taking the medium
	pipe     []flight         // frames propagating, in send order
	runFn    func()           // l.run and l.arrive, bound once so that
	arriveFn func()           // scheduling them allocates nothing
}

// flight is one frame in propagation and its arrival time.
type flight struct {
	at sim.Time
	pk packet
}

// Transmitter stages.
const (
	txNext      = iota // take the next frame off the queue
	txSerialize        // the medium is ours: clock the frame out
	txSent             // the frame's last bit is on the wire
)

func newLink(env *sim.Env, cfg LinkConfig, from, to *Node) *Link {
	if cfg.QueueLen == 0 {
		cfg.QueueLen = 32
	}
	l := &Link{cfg: cfg, env: env, net: from.net, from: from, to: to}
	l.runFn, l.arriveFn = l.run, l.arrive
	return l
}

// Config returns the link configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// From and To identify the link's endpoints (it is one direction of a
// connection).
func (l *Link) From() *Node { return l.from }
func (l *Link) To() *Node   { return l.to }

// SetFault installs (or, with nil, removes) a fault-injection hook on this
// link direction. The fault layer in internal/faultplan drives this.
func (l *Link) SetFault(h FaultHook) { l.fault = h }

// enqueue offers a frame to the transmit queue; overflow is dropped. A frame
// that finds the transmitter idle starts it at the current instant.
func (l *Link) enqueue(pk packet) {
	if l.q.Len() >= l.cfg.QueueLen {
		l.Stat.QueueDrops++
		l.net.trace(l.env.Now(), l.cfg.Name, TraceQDrop, pk)
		return
	}
	l.q.Push(pk)
	if !l.busy {
		l.busy = true
		l.env.At(l.env.Now(), l.runFn)
	}
}

// txTime returns the serialization time for n wire bytes.
func (l *Link) txTime(n int) sim.Time {
	return sim.Time(float64(n*8) / float64(l.cfg.BitsPerSec) * float64(time.Second))
}

// run is the transmitter. It sends queued frames back to back for as long as
// each wait can advance the clock in place, and returns when the queue is
// empty or a wait has scheduled it for later.
func (l *Link) run() {
	rng := l.env.Rand()
	for {
		switch l.stage {
		case txNext:
			if l.q.Len() == 0 {
				l.busy = false
				return
			}
			l.cur = l.q.Pop()
			l.stage = txSerialize
			// Background cross-traffic: with probability BgUtil the medium
			// is busy and the frame waits behind an exponential burst of
			// foreign frames.
			if u := l.cfg.BgUtil; u > 0 && rng.Float64() < u {
				mean := float64(l.txTime(600)) / (1 - u)
				if !sleep(l.env, sim.Time(rng.ExpFloat64()*mean), l.runFn) {
					return
				}
			}
		case txSerialize:
			l.stage = txSent
			if !sleep(l.env, l.txTime(l.cur.wireBytes()), l.runFn) {
				return
			}
		case txSent:
			l.stage = txNext
			l.sent(l.cur, rng)
		}
	}
}

// sleep is Proc.Sleep for the event-driven models: it advances the clock by
// d in place and reports true, or schedules fn for the wake-up, where a
// sleeping process would resume, and reports false.
func sleep(env *sim.Env, d sim.Time, fn func()) bool {
	when := env.Now() + d
	if env.Advance(when) {
		return true
	}
	env.At(when, fn)
	return false
}

// sent accounts a serialized frame and launches it, unless random loss or
// the fault hook drops it.
func (l *Link) sent(pk packet, rng *rand.Rand) {
	now := l.env.Now()
	l.Stat.Frames++
	l.Stat.Bytes += pk.wireBytes()
	if l.cfg.LossProb > 0 && rng.Float64() < l.cfg.LossProb {
		l.Stat.Lost++
		l.net.trace(now, l.cfg.Name, TraceLoss, pk)
		return
	}
	// Fault injection: the hook (if any) may drop, duplicate, corrupt or
	// delay the frame. It runs here — after serialization, before
	// propagation — so faulted frames still consumed link bandwidth.
	delay := l.cfg.PropDelay
	if l.fault != nil {
		v := l.fault(now, rng)
		if v.Drop {
			l.Stat.FaultDrops++
			l.net.trace(now, l.cfg.Name, TraceLoss, pk)
			return
		}
		if v.Corrupt {
			l.Stat.FaultCorrup++
			pk.dg.Corrupted = true
		}
		delay += v.ExtraDelay
		if v.Duplicate {
			l.Stat.FaultDups++
			pk.dg.Duplicated = true
			pk.dg.refs++ // the copy may deliver the datagram a second time
			l.launch(now+l.cfg.PropDelay, pk)
		}
	}
	// Propagation happens off the transmitter's clock so back-to-back
	// frames pipeline.
	l.launch(now+delay, pk)
}

// launch puts pk on the pipe, due at the far node at time at.
func (l *Link) launch(at sim.Time, pk packet) {
	l.pipe = append(l.pipe, flight{at, pk})
	l.env.At(at, l.arriveFn)
}

// arrive hands the far node the frame this arrival event was scheduled for.
// Arrival events fire in (time, send) order, so that is the earliest-due
// frame on the pipe, the first sent among ties: an extra fault delay lets
// later frames overtake, and a duplicate arrives no later than its copy.
func (l *Link) arrive() {
	i := 0
	for j := 1; j < len(l.pipe); j++ {
		if l.pipe[j].at < l.pipe[i].at {
			i = j
		}
	}
	pk := l.pipe[i].pk
	l.pipe = slices.Delete(l.pipe, i, i+1)
	l.to.receive(pk)
}

// LongFatPipe returns a T1-class link with transcontinental propagation
// delay: high bandwidth-delay product, the regime where read-ahead depth
// and request pipelining decide throughput (Future Directions,
// [Jacobson88b]).
func LongFatPipe(name string) LinkConfig {
	return LinkConfig{
		Name:       name,
		BitsPerSec: 1_544_000,
		MTU:        1500 + etherIPHeader,
		PropDelay:  150 * time.Millisecond,
		QueueLen:   40,
		LossProb:   0.0005,
		BgUtil:     0.05,
	}
}

// Standard link configurations for the paper's three interconnects.

// Ethernet returns a lightly loaded 10 Mbit/s Ethernet segment.
func Ethernet(name string) LinkConfig {
	return LinkConfig{
		Name:       name,
		BitsPerSec: 10_000_000,
		MTU:        1500 + etherIPHeader,
		PropDelay:  50 * time.Microsecond,
		QueueLen:   30,
		LossProb:   0.0002,
		BgUtil:     0.03,
	}
}

// TokenRing returns the 80 Mbit/s campus backbone ring with realistic
// off-peak cross traffic.
func TokenRing(name string) LinkConfig {
	return LinkConfig{
		Name:       name,
		BitsPerSec: 80_000_000,
		MTU:        4464 + etherIPHeader,
		PropDelay:  400 * time.Microsecond,
		QueueLen:   24,
		LossProb:   0.002,
		BgUtil:     0.15,
	}
}

// SerialLine returns the 56 Kbit/s point-to-point link. After hours it
// carries almost no other load, but its tiny bandwidth makes its queue the
// system bottleneck.
func SerialLine(name string) LinkConfig {
	return LinkConfig{
		Name:       name,
		BitsPerSec: 56_000,
		MTU:        1006 + etherIPHeader,
		PropDelay:  8 * time.Millisecond,
		// A short queue, as serial interfaces of the era had: one 8 KB
		// datagram is 9 fragments, so a single burst fits but two
		// concurrent ones overflow it and drop fragments — each of which
		// loses a whole datagram.
		QueueLen: 12,
		LossProb: 0.002,
		BgUtil:   0.02,
	}
}
