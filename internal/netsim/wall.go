package netsim

import (
	"errors"
	"net"

	"renonfs/internal/mbuf"
	"renonfs/internal/sim"
)

// Endpoint is a datagram socket that processes send through and whose
// arrivals queue up: a simulated *UDPSocket, or a real *WallSocket.
type Endpoint interface {
	Send(p *sim.Proc, dst NodeID, dport int, payload *mbuf.Chain)
	Queue() *sim.Queue[*Datagram]
	Close()
}

// WallSocket is a real UDP socket connected to one address, for an
// environment driven by sim.Env.RunWall. Its reader goroutine copies each
// datagram into a chain and posts it onto the receive queue, so processes
// consume replies on the environment's clock.
type WallSocket struct {
	conn net.Conn
	rq   *sim.Queue[*Datagram]
}

// DialWall connects a real UDP socket to addr and starts its reader.
func DialWall(env *sim.Env, addr string) (*WallSocket, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	w := &WallSocket{conn: conn, rq: sim.NewQueue[*Datagram](env, addr)}
	go w.read(env)
	return w, nil
}

// Send writes payload as one datagram to the connected address; a failed
// write is a lost datagram.
func (w *WallSocket) Send(_ *sim.Proc, _ NodeID, _ int, payload *mbuf.Chain) {
	w.conn.Write(payload.Bytes())
	payload.Free()
}

// Queue returns the receive queue.
func (w *WallSocket) Queue() *sim.Queue[*Datagram] { return w.rq }

// LocalAddr returns the socket's local address.
func (w *WallSocket) LocalAddr() string { return w.conn.LocalAddr().String() }

// Close closes the socket, which ends its reader, and the receive queue.
func (w *WallSocket) Close() { w.conn.Close(); w.rq.Close() }

// read runs until the socket closes. Other errors, such as a refused port's
// ICMP report, lose a datagram the caller's timers already account for.
func (w *WallSocket) read(env *sim.Env) {
	buf := make([]byte, 1<<16)
	for {
		n, err := w.conn.Read(buf)
		if errors.Is(err, net.ErrClosed) {
			return
		} else if err == nil {
			dg := &Datagram{Payload: mbuf.FromBytes(buf[:n])}
			env.Post(func() { w.rq.Send(dg) })
		}
	}
}
