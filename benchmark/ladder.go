package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"renonfs/internal/mbuf"
	"renonfs/internal/memfs"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/server"
	"renonfs/internal/xdr"
)

// The ladder: benchmark-owned spans around the layers' public functions, run
// in this process on the workload's own request stream against a server core
// built and populated the way cmd/nfsd's is. It prices each rung of a request
// (peek, header decode, argument decode, service, reply encode, the ingest
// copy and the reply linearize) without a socket, a scheduler or a second
// process in the way, so a change to one layer shows here first.

// localCaller runs populate's RPCs through HandleCall.
type localCaller struct {
	srv *server.Server
	xid uint32
}

func (c *localCaller) Call(proc uint32, args func(e *xdr.Encoder)) (*xdr.Decoder, error) {
	c.xid++
	req := &mbuf.Chain{}
	rpc.EncodeCall(req, &rpc.Call{XID: c.xid, Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: proc})
	if args != nil {
		args(xdr.NewEncoder(req))
	}
	rep := c.srv.HandleCall(nil, "ladder", req)
	if rep == nil {
		return nil, errors.New("ladder: call produced no reply")
	}
	d := xdr.NewDecoder(rep)
	r, err := rpc.DecodeReply(d)
	if err != nil {
		return nil, err
	}
	if r.Denied || r.AcceptStat != rpc.Success {
		return nil, fmt.Errorf("ladder: rpc failed (stat %d)", r.AcceptStat)
	}
	return d, nil
}

// newLadderServer mirrors cmd/nfsd's main: same file system id, same demo
// tree ahead of the benchmark's files, same personality and pool size.
func newLadderServer() (*server.Server, *memfs.FS) {
	fs := memfs.New(1, nil, nil)
	etc, _ := fs.Mkdir(nil, fs.Root(), "etc", 0755)
	fs.Create(nil, etc, "motd", 0644)
	fs.Mkdir(nil, fs.Root(), "home", 0755)
	opts := server.Reno()
	opts.ReaddirLook = true
	opts.NFSDs = 8
	srv := server.New(fs, opts)
	srv.Export("/")
	srv.EnableConcurrentDispatch()
	return srv, fs
}

// encoder is any NFS result body.
type encoder interface{ Encode(e *xdr.Encoder) }

// decodeArgs and decodeRes are the codec rungs: the argument decoder and the
// result type each procedure of the streams uses.
func decodeArgs(k opKind, d *xdr.Decoder) (err error) {
	switch k {
	case opLookup, opLookupMiss, opRemove:
		_, err = nfsproto.DecodeDiropArgs(d)
	case opGetattr, opStatfs, opReadlink:
		_, err = nfsproto.DecodeGetattrArgs(d)
	case opReaddir:
		_, err = nfsproto.DecodeReaddirArgs(d)
	case opRead:
		_, err = nfsproto.DecodeReadArgs(d)
	case opWrite:
		var a *nfsproto.WriteArgs
		if a, err = nfsproto.DecodeWriteArgs(d); err == nil {
			a.Data.Free()
		}
	case opCreate:
		_, err = nfsproto.DecodeCreateArgs(d)
	}
	return err
}

func decodeRes(k opKind, d *xdr.Decoder) (encoder, error) {
	switch k {
	case opLookup, opLookupMiss, opCreate:
		return nfsproto.DecodeDiropRes(d)
	case opGetattr, opWrite:
		return nfsproto.DecodeAttrRes(d)
	case opReaddir:
		return nfsproto.DecodeReaddirRes(d)
	case opStatfs:
		return nfsproto.DecodeStatfsRes(d)
	case opReadlink:
		return nfsproto.DecodeReadlinkRes(d)
	case opRead:
		return nfsproto.DecodeReadRes(d)
	default:
		return nfsproto.DecodeStatusRes(d)
	}
}

// countAllocs makes pass's allocation count repeat from run to run. What a
// pass allocates depends on what the mbuf sync.Pools hold, and that depends on
// when the collector last ran. So: two collections empty the pools (primary
// and victim), the collector is switched off, one uncounted pass refills
// them, and the second pass is the one that counts.
func countAllocs(pass func(counted bool) error) error {
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := pass(false); err != nil {
		return err
	}
	return pass(true)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

const (
	ladderBatch  = 64 // requests staged per timed phase: small enough to stay cache-warm like a live server
	ladderCycles = 4  // timed stream cycles per rung, after one untimed
)

// ladder fills m with the in-process per-layer metrics of w's stream.
func ladder(w *workload, seed int64, m map[string]float64) error {
	srv, fs := newLadderServer()
	ds, err := populate(&localCaller{srv: srv}, srv.RootFH(), w, seed)
	if err != nil {
		return fmt.Errorf("ladder populate: %w", err)
	}
	s := buildStream(w, ds, seed)
	pkt := func(i int) []byte { return s.tmpl[i].wire[s.xidOff:] } // the datagram, without a record mark
	xid := uint32(1 << 20)
	stamp := func(i int) {
		xid++
		binary.BigEndian.PutUint32(pkt(i), xid)
	}
	// Rungs 1-3: ingest copy, generic service, reply linearize.
	var reqs, reps [ladderBatch]*mbuf.Chain
	var fromNS, callNS, bytesNS time.Duration
	var replies [streamLen]encoder // each template's decoded result, for the encode rung
	nc0, bc0 := srv.NameCacheStats(), srv.BufCacheStats()
	var callAllocs uint64
	// The first pass warms up and captures each reply; counted passes take
	// allocations around HandleCall alone.
	serve := func(timed, counted bool) error {
		for lo := 0; lo < streamLen; lo += ladderBatch {
			for i := 0; i < ladderBatch; i++ {
				stamp(lo + i)
			}
			t0 := time.Now()
			for i := 0; i < ladderBatch; i++ {
				reqs[i] = mbuf.FromBytes(pkt(lo + i))
			}
			t1 := time.Now()
			var m0 uint64
			if counted {
				m0 = mallocs()
			}
			for i := 0; i < ladderBatch; i++ {
				reps[i] = srv.HandleCall(nil, "ladder", reqs[i])
			}
			t2 := time.Now()
			if counted {
				callAllocs += mallocs() - m0
			}
			for i := 0; i < ladderBatch; i++ {
				if reps[i] == nil {
					return fmt.Errorf("ladder: template %d got no reply", lo+i)
				}
				_ = reps[i].Bytes()
			}
			t3 := time.Now()
			if timed {
				fromNS, callNS, bytesNS = fromNS+t1.Sub(t0), callNS+t2.Sub(t1), bytesNS+t3.Sub(t2)
			}
			for i := 0; i < ladderBatch; i++ {
				if replies[lo+i] == nil {
					d := xdr.NewDecoder(reps[i])
					if _, err := rpc.DecodeReply(d); err != nil {
						return err
					}
					if replies[lo+i], err = decodeRes(s.tmpl[lo+i].kind, d); err != nil {
						return fmt.Errorf("ladder: template %d reply: %w", lo+i, err)
					}
					if rr, ok := replies[lo+i].(*nfsproto.ReadRes); ok && rr.Data != nil {
						rr.Data.Free() // a view into the reply freed below; the encode rung loans its own page
						rr.Data = nil
					}
				}
				reqs[i].Free()
				reps[i].Free()
			}
		}
		return nil
	}
	for cycle := 0; cycle <= ladderCycles; cycle++ {
		if err := serve(cycle > 0, false); err != nil {
			return err
		}
	}
	if err := countAllocs(func(counted bool) error { return serve(false, counted) }); err != nil {
		return err
	}
	ops := float64(ladderCycles * streamLen)
	m["mbuf.frombytes_ns"] = float64(fromNS) / ops
	m["server.handlecall_ns"] = float64(callNS) / ops
	m["mbuf.bytes_ns"] = float64(bytesNS) / ops
	m["server.handlecall_allocs"] = float64(callAllocs) / streamLen
	nc1, bc1 := srv.NameCacheStats(), srv.BufCacheStats()
	m["vfs.namecache_hit_ratio"] = ratio(float64(nc1.Hits-nc0.Hits), float64(nc1.Hits-nc0.Hits+nc1.Misses-nc0.Misses))
	m["vfs.bufcache_hit_ratio"] = ratio(float64(bc1.Hits-bc0.Hits), float64(bc1.Hits-bc0.Hits+bc1.Misses-bc0.Misses))

	// Rung: header peek, and the shallow dispatch path for the templates it takes.
	var fast []int
	var h rpc.PeekedCall
	argOff := make([]int, streamLen)
	for i := 0; i < streamLen; i++ {
		off, ok := rpc.PeekCallHeader(pkt(i), &h)
		if !ok {
			return fmt.Errorf("ladder: template %d does not peek", i)
		}
		argOff[i] = off
		if server.FastEligible(&h) {
			fast = append(fast, i)
		}
	}
	t0 := time.Now()
	for c := 0; c < ladderCycles; c++ {
		for i := 0; i < streamLen; i++ {
			rpc.PeekCallHeader(pkt(i), &h)
		}
	}
	m["rpc.peek_ns"] = float64(time.Since(t0)) / ops
	out := make([]byte, 0, server.FastReplyMax)
	fastPass := func() error {
		for _, i := range fast {
			off, _ := rpc.PeekCallHeader(pkt(i), &h)
			if rep, ok := srv.HandleCallFast("ladder", pkt(i), &h, off, out, nil); !ok || len(rep) == 0 {
				return fmt.Errorf("ladder: fast path refused template %d", i)
			}
		}
		return nil
	}
	if len(fast) > 0 {
		if err := fastPass(); err != nil {
			return err
		}
		t0 = time.Now()
		for c := 0; c < ladderCycles; c++ {
			fastPass()
		}
		m["server.handlecallfast_ns"] = float64(time.Since(t0)) / float64(ladderCycles*len(fast))
		var n uint64
		countAllocs(func(bool) error {
			m0 := mallocs()
			fastPass()
			n = mallocs() - m0
			return nil
		})
		m["server.handlecallfast_allocs"] = float64(n) / float64(len(fast))
	}

	// Rungs: CALL header decode, argument decode, reply encode, on chains
	// staged the way ingest stages them.
	var hdrNS, argNS, encNS time.Duration
	var codecAllocs uint64
	var call rpc.Call
	page := make([]byte, blockSize)
	codec := func(timed, counted bool) error {
		for lo := 0; lo < streamLen; lo += ladderBatch {
			for i := 0; i < ladderBatch; i++ {
				reqs[i] = mbuf.FromBytes(pkt(lo + i))
				reps[i] = mbuf.FromBytes(pkt(lo + i)[argOff[lo+i]:])
				if rr, ok := replies[lo+i].(*nfsproto.ReadRes); ok && rr.Status == nfsproto.OK {
					rr.Data = &mbuf.Chain{}
					rr.Data.AppendExt(page)
				}
			}
			var m0 uint64
			if counted {
				m0 = mallocs()
			}
			t0 := time.Now()
			for i := 0; i < ladderBatch; i++ {
				if err := rpc.DecodeCallInto(xdr.NewDecoder(reqs[i]), &call); err != nil {
					return err
				}
			}
			t1 := time.Now()
			for i := 0; i < ladderBatch; i++ {
				if err := decodeArgs(s.tmpl[lo+i].kind, xdr.NewDecoder(reps[i])); err != nil {
					return fmt.Errorf("ladder: template %d args: %w", lo+i, err)
				}
			}
			t2 := time.Now()
			for i := 0; i < ladderBatch; i++ {
				reqs[i].Free()
				reps[i].Free()
				reps[i] = &mbuf.Chain{}
			}
			t3 := time.Now()
			for i := 0; i < ladderBatch; i++ {
				rpc.EncodeReply(reps[i], uint32(i), rpc.Success)
				replies[lo+i].Encode(xdr.NewEncoder(reps[i]))
			}
			t4 := time.Now()
			if counted {
				codecAllocs += mallocs() - m0
			}
			if timed {
				hdrNS, argNS, encNS = hdrNS+t1.Sub(t0), argNS+t2.Sub(t1), encNS+t4.Sub(t3)
			}
			for i := 0; i < ladderBatch; i++ {
				reps[i].Free()
			}
		}
		return nil
	}
	for cycle := 0; cycle < ladderCycles; cycle++ {
		if err := codec(true, false); err != nil {
			return err
		}
	}
	if err := countAllocs(func(counted bool) error { return codec(false, counted) }); err != nil {
		return err
	}
	m["rpc.decode_call_ns"] = float64(hdrNS) / ops
	m["xdr.decode_args_ns"] = float64(argNS) / ops
	m["xdr.encode_reply_ns"] = float64(encNS) / ops
	m["xdr.codec_allocs"] = float64(codecAllocs) / streamLen

	// Rungs: the file system under the READ, WRITE and LOOKUP templates,
	// each kind's templates timed as one loop per cycle.
	dir, err := fs.Resolve(ds.dir)
	if err != nil {
		return err
	}
	var byKind [opRemove + 1][]*template
	for i := range s.tmpl {
		k := s.tmpl[i].kind
		if k == opLookupMiss {
			k = opLookup
		}
		byKind[k] = append(byKind[k], &s.tmpl[i])
	}
	fsRung := func(name string, ts []*template, op func(t *template, n *memfs.Inode, off uint32) error) error {
		if len(ts) == 0 {
			return nil
		}
		t0 := time.Now()
		for c := 0; c < ladderCycles; c++ {
			for _, t := range ts {
				var n *memfs.Inode
				if t.block >= 0 {
					if n, err = fs.Resolve(ds.data[t.block/fileBlocks]); err != nil {
						return err
					}
				}
				if err := op(t, n, uint32(t.block%fileBlocks)*blockSize); err != nil {
					return err
				}
			}
		}
		m[name] = float64(time.Since(t0)) / float64(ladderCycles*len(ts))
		return nil
	}
	if err := fsRung("memfs.readloan_ns", byKind[opRead], func(_ *template, n *memfs.Inode, off uint32) error {
		c := &mbuf.Chain{}
		_, err := fs.ReadLoan(nil, n, off, blockSize, true, c, nil)
		c.Free()
		return err
	}); err != nil {
		return err
	}
	src := mbuf.FromBytes(page) // WriteAtChain reads its source without consuming it
	defer src.Free()
	if err := fsRung("memfs.writeatchain_ns", byKind[opWrite], func(_ *template, n *memfs.Inode, off uint32) error {
		return fs.WriteAtChain(nil, n, off, src, 0, nil)
	}); err != nil {
		return err
	}
	return fsRung("memfs.lookup_ns", byKind[opLookup], func(t *template, _ *memfs.Inode, _ uint32) error {
		fs.Lookup(dir, t.name) // a miss is an expected answer here
		return nil
	})
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
