package server

import (
	"fmt"

	"renonfs/internal/mbuf"
	"renonfs/internal/netsim"
	"renonfs/internal/rpc"
	"renonfs/internal/sim"
	"renonfs/internal/tcpsim"
)

// NFSPort is the conventional NFS port.
const NFSPort = 2049

// job is one request handed to the nfsd pool, with the address its reply
// goes to: a UDP socket and the sender's (src, sport), or a TCP connection.
// The nfsd frees req once the call is done, unless keep is set: a datagram
// a fault duplicated may deliver the same chain again.
type job struct {
	peer  string
	req   *mbuf.Chain
	keep  bool
	sock  *netsim.UDPSocket
	src   netsim.NodeID
	sport int
	conn  *tcpsim.Conn
}

// ServeUDP starts the UDP frontend on the attached node: the socket's
// receive queue feeds a pool of nfsd daemons, the way rpc.nfsd worked. The
// receiver only hands each datagram on, so it runs as the queue's callback
// consumer rather than as a process.
func (s *Server) ServeUDP(port int) {
	if s.Node == nil {
		panic("server: ServeUDP without AttachNode")
	}
	env := s.Node.Net().Env
	sock := s.Node.UDPSocket(port)
	s.EnableLeaseCallbacks(sock)
	jobs := sim.NewQueue[job](env, s.Opts.Name+".nfsd-q")
	// Peer strings are interned per (src, sport): a client keeps one socket
	// for its whole run, so formatting the name once beats a fmt.Sprintf per
	// request.
	type udpPeer struct {
		src   netsim.NodeID
		sport int
	}
	peers := make(map[udpPeer]string)
	sock.Queue().Serve(func(dg *netsim.Datagram) {
		src, sport := dg.Src, dg.SrcPort
		peer, ok := peers[udpPeer{src, sport}]
		if !ok {
			peer = fmt.Sprintf("udp:%d:%d", src, sport)
			peers[udpPeer{src, sport}] = peer
		}
		jobs.Send(job{peer: peer, req: dg.Payload, keep: dg.Duplicated, sock: sock, src: src, sport: sport})
	})
	s.spawnNFSDs(env, jobs, "udp")
}

// ServeTCP starts the TCP frontend: an acceptor and, per connection, a
// reader that reassembles record-marked requests and feeds the shared nfsd
// pool; replies are record-marked back onto the connection (the
// concurrency control §2 mentions is free here, one process runs at a
// time). The acceptor and the readers only hand work on, so they run as
// event callbacks; a request is the received segments' own mbufs.
func (s *Server) ServeTCP(stack *tcpsim.Stack, port int) {
	if s.Node == nil {
		panic("server: ServeTCP without AttachNode")
	}
	env := s.Node.Net().Env
	l := stack.Listen(port)
	jobs := sim.NewQueue[job](env, s.Opts.Name+".nfsd-tcp-q")
	s.spawnNFSDs(env, jobs, "tcp")
	connID := 0
	l.Serve(func(conn *tcpsim.Conn) {
		peer := fmt.Sprintf("tcp:%d", connID)
		connID++
		if s.conns == nil {
			s.conns = make(map[*tcpsim.Conn]struct{})
		}
		s.conns[conn] = struct{}{}
		var scan rpc.ChainScanner
		conn.Serve(func(data *mbuf.Chain) bool {
			scan.Feed(data)
			for {
				req, err := scan.Next()
				if err != nil {
					conn.Abort()
					delete(s.conns, conn)
					return false
				}
				if req == nil {
					return true
				}
				jobs.Send(job{peer: peer, req: req, conn: conn})
			}
		}, func() {
			conn.Close()
			delete(s.conns, conn)
		})
	})
}

// spawnNFSDs starts the server daemon pool.
func (s *Server) spawnNFSDs(env *sim.Env, jobs *sim.Queue[job], tag string) {
	for i := 0; i < s.Opts.NFSDs; i++ {
		env.Spawn(fmt.Sprintf("%s.nfsd-%s%d", s.Opts.Name, tag, i), func(p *sim.Proc) {
			for {
				j, ok := jobs.Recv(p)
				if !ok {
					return
				}
				if s.down.Load() {
					continue // crashed: the request vanishes
				}
				rep := s.HandleCall(p, j.peer, j.req)
				if !j.keep {
					j.req.Free()
				}
				switch {
				case j.conn != nil:
					if rep != nil {
						rpc.AddRecordMark(rep)
						j.conn.Send(p, rep)
					}
				case rep != nil:
					j.sock.Send(p, j.src, j.sport, rep)
				}
			}
		})
	}
}
