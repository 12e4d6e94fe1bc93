package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand"

	"renonfs/internal/mbuf"
	"renonfs/internal/nfsproto"
	"renonfs/internal/rpc"
	"renonfs/internal/xdr"
)

// Data-set geometry (ISSUE 13): one directory of small files and symlinks
// that fits the server's 512-entry name cache, and 64 files x 32 blocks of
// 8 KB — 16 MB, about ten times the 192-buffer block cache.
const (
	metaFiles  = 384
	metaLinks  = 16
	dataFiles  = 64
	fileBlocks = 32
	dataBlocks = dataFiles * fileBlocks
	blockSize  = nfsproto.MaxData
	streamLen  = 4096 // request templates per stream cycle
	tmpNames   = 8    // CREATE/REMOVE scratch names
)

type opKind uint8

const (
	opLookup opKind = iota
	opLookupMiss
	opGetattr
	opReaddir
	opStatfs
	opReadlink
	opRead
	opWrite
	opCreate
	opRemove
)

var opProc = [...]uint32{
	opLookup: nfsproto.ProcLookup, opLookupMiss: nfsproto.ProcLookup,
	opGetattr: nfsproto.ProcGetattr, opReaddir: nfsproto.ProcReaddir,
	opStatfs: nfsproto.ProcStatfs, opReadlink: nfsproto.ProcReadlink,
	opRead: nfsproto.ProcRead, opWrite: nfsproto.ProcWrite,
	opCreate: nfsproto.ProcCreate, opRemove: nfsproto.ProcRemove,
}

type mixEntry struct {
	kind   opKind
	weight int // percent
}

// workload is one traffic shape. The reasons are repeated in BENCHMARK.json
// and README.md.
type workload struct {
	name   string
	tcp    bool
	window int
	mix    []mixEntry
	// meta/data select which data sets populate builds.
	meta, data bool
}

var workloads = []workload{
	{name: "meta_udp", window: 8, meta: true, mix: []mixEntry{
		{opLookup, 45}, {opLookupMiss, 5}, {opGetattr, 30}, {opReaddir, 10}, {opStatfs, 5}, {opReadlink, 5}}},
	{name: "read8k_udp", window: 4, data: true, mix: []mixEntry{{opRead, 100}}},
	{name: "write8k_udp", window: 4, data: true, mix: []mixEntry{{opWrite, 100}}},
	{name: "mix_tcp", tcp: true, window: 4, meta: true, data: true, mix: []mixEntry{
		{opRead, 35}, {opWrite, 15}, {opLookup, 20}, {opGetattr, 15}, {opReaddir, 5}, {opCreate, 10}}},
	{name: "sim_tables"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// caller issues one NFS RPC and returns a decoder at its results:
// *nfsnet.Client against the child, localCaller against the in-process
// ladder server.
type caller interface {
	Call(proc uint32, args func(e *xdr.Encoder)) (*xdr.Decoder, error)
}

// dataset is the handles populate created.
type dataset struct {
	dir   nfsproto.FH
	files []nfsproto.FH // metaFiles small files "f000"...
	links []nfsproto.FH // metaLinks symlinks "l00"...
	data  []nfsproto.FH // dataFiles block files "d00"...
}

func metaName(i int) string { return fmt.Sprintf("f%03d", i) }
func linkName(i int) string { return fmt.Sprintf("l%02d", i) }
func dataName(i int) string { return fmt.Sprintf("d%02d", i) }

const scratchName = "scratch" // the file the stream's CREATE/REMOVE pairs make and unmake

func dirop(c caller, proc uint32, args func(e *xdr.Encoder)) (nfsproto.FH, error) {
	d, err := c.Call(proc, args)
	if err != nil {
		return nfsproto.FH{}, err
	}
	res, err := nfsproto.DecodeDiropRes(d)
	if err != nil {
		return nfsproto.FH{}, err
	}
	if res.Status != nfsproto.OK {
		return nfsproto.FH{}, fmt.Errorf("%s: %v", nfsproto.ProcName(proc), res.Status)
	}
	return res.File, nil
}

func createArgs(dir nfsproto.FH, name string, mode uint32) *nfsproto.CreateArgs {
	attr := nfsproto.NewSattr()
	attr.Mode = mode
	return &nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: dir, Name: name}, Attr: attr}
}

func create(c caller, proc uint32, dir nfsproto.FH, name string, mode uint32) (nfsproto.FH, error) {
	return dirop(c, proc, createArgs(dir, name, mode).Encode)
}

// populate builds the workload's data set under a fresh "bench" directory
// using NFS RPCs only, so the export is in the state a client would leave.
func populate(c caller, root nfsproto.FH, w *workload, seed int64) (*dataset, error) {
	ds := &dataset{}
	var err error
	if ds.dir, err = create(c, nfsproto.ProcMkdir, root, "bench", 0755); err != nil {
		return nil, err
	}
	if w.meta {
		for i := 0; i < metaFiles; i++ {
			fh, err := create(c, nfsproto.ProcCreate, ds.dir, metaName(i), 0644)
			if err != nil {
				return nil, err
			}
			ds.files = append(ds.files, fh)
		}
		for i := 0; i < metaLinks; i++ {
			args := &nfsproto.SymlinkArgs{From: nfsproto.DiropArgs{Dir: ds.dir, Name: linkName(i)},
				To: metaName(i), Attr: nfsproto.NewSattr()}
			d, err := c.Call(nfsproto.ProcSymlink, args.Encode)
			if err != nil {
				return nil, err
			}
			if res, err := nfsproto.DecodeStatusRes(d); err != nil || res.Status != nfsproto.OK {
				return nil, fmt.Errorf("symlink %s: %v %v", linkName(i), res, err)
			}
			fh, err := dirop(c, nfsproto.ProcLookup, (&nfsproto.DiropArgs{Dir: ds.dir, Name: linkName(i)}).Encode)
			if err != nil {
				return nil, err
			}
			ds.links = append(ds.links, fh)
		}
	}
	if w.data {
		block := make([]byte, blockSize)
		for f := 0; f < dataFiles; f++ {
			fh, err := create(c, nfsproto.ProcCreate, ds.dir, dataName(f), 0644)
			if err != nil {
				return nil, err
			}
			ds.data = append(ds.data, fh)
			for b := 0; b < fileBlocks; b++ {
				fillBlock(block, seed, uint32(f*fileBlocks+b))
				d, err := c.Call(nfsproto.ProcWrite, func(e *xdr.Encoder) {
					(&nfsproto.WriteArgs{File: fh, Offset: uint32(b * blockSize), Data: mbuf.FromBytes(block)}).Encode(e)
				})
				if err != nil {
					return nil, err
				}
				if res, err := nfsproto.DecodeAttrRes(d); err != nil || res.Status != nfsproto.OK {
					return nil, fmt.Errorf("populate write %s/%d: %v %v", dataName(f), b, res, err)
				}
			}
		}
	}
	return ds, nil
}

// --- payload pattern --------------------------------------------------------

// Every 8 KB payload is a function of (seed, generation): generations
// 0..dataBlocks-1 are what populate wrote to each block, dataBlocks+i is
// what stream template i writes. A READ reply is checked against the
// generation last written to its block.

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// patternWord is the i-th little-endian uint64 of generation gen's block.
func patternWord(seed int64, gen uint32, i int) uint64 {
	return mix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(gen)<<20 + uint64(i))
}

func fillBlock(dst []byte, seed int64, gen uint32) {
	for i := 0; i < len(dst)/8; i++ {
		binary.LittleEndian.PutUint64(dst[i*8:], patternWord(seed, gen, i))
	}
}

// --- request templates ------------------------------------------------------

// template is one pre-encoded request. The load generator patches the XID
// into wire and sends the bytes unchanged otherwise.
type template struct {
	wire  []byte // TCP templates carry their record mark
	kind  opKind
	want  nfsproto.Status
	block int32       // READ/WRITE target block, else -1
	fh    nfsproto.FH // LOOKUP: the handle the reply must carry
	name  string      // LOOKUP: the name asked for
}

// stream is a workload's cyclic request stream plus what verification needs.
type stream struct {
	seed    int64
	tcp     bool
	tmpl    []template
	crc     []uint32 // crc32 of each generation's block, indexed by generation
	sha256  string   // over every template's bytes, for the run record
	xidOff  int      // offset of the XID in wire (4 behind a TCP record mark)
	dataFHs []nfsproto.FH
}

func encodeCall(tcp bool, proc uint32, args func(e *xdr.Encoder)) []byte {
	c := &mbuf.Chain{}
	rpc.EncodeCall(c, &rpc.Call{Prog: nfsproto.Program, Vers: nfsproto.Version, Proc: proc})
	args(xdr.NewEncoder(c))
	if tcp {
		rpc.AddRecordMark(c)
	}
	wire := c.Bytes()
	c.Free()
	return wire
}

// streamRand is the seeded source for one named use, so that no two uses of
// a seed draw the same numbers.
func streamRand(name string, seed int64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// buildStream derives the workload's streamLen templates from the seed.
// Every CREATE is followed by its REMOVE inside the cycle, so each cycle
// starts from the same directory.
func buildStream(w *workload, ds *dataset, seed int64) *stream {
	rng := streamRand(w.name, seed)
	s := &stream{seed: seed, tcp: w.tcp, dataFHs: ds.data, tmpl: make([]template, 0, streamLen)}
	if w.tcp {
		s.xidOff = 4
	}
	if w.data {
		s.crc = make([]uint32, dataBlocks+streamLen)
		block := make([]byte, blockSize)
		for g := 0; g < dataBlocks; g++ {
			fillBlock(block, seed, uint32(g))
			s.crc[g] = crc32.ChecksumIEEE(block)
		}
	}
	created := false // a CREATE is waiting for its REMOVE
	for i := 0; i < streamLen; i++ {
		kind := pickKind(w.mix, rng)
		switch last := i == streamLen-1; {
		case created && (kind == opCreate || last):
			kind = opRemove // the pair closes, on the cycle's last template at the latest
		case kind == opCreate && last:
			kind = opGetattr // a CREATE here could not be removed within the cycle
		}
		t := template{kind: kind, want: nfsproto.OK, block: -1}
		proc := opProc[kind]
		switch kind {
		case opLookup:
			f := rng.Intn(metaFiles)
			t.fh, t.name = ds.files[f], metaName(f)
			t.wire = encodeCall(w.tcp, proc, (&nfsproto.DiropArgs{Dir: ds.dir, Name: t.name}).Encode)
		case opLookupMiss:
			t.want, t.name = nfsproto.ErrNoEnt, fmt.Sprintf("nope%03d", rng.Intn(1000))
			t.wire = encodeCall(w.tcp, proc, (&nfsproto.DiropArgs{Dir: ds.dir, Name: t.name}).Encode)
		case opGetattr:
			t.wire = encodeCall(w.tcp, proc, (&nfsproto.GetattrArgs{File: ds.files[rng.Intn(metaFiles)]}).Encode)
		case opReaddir:
			t.wire = encodeCall(w.tcp, proc, (&nfsproto.ReaddirArgs{Dir: ds.dir, Cookie: uint32(rng.Intn(metaFiles)), Count: 1024}).Encode)
		case opStatfs:
			t.wire = encodeCall(w.tcp, proc, (&nfsproto.GetattrArgs{File: ds.dir}).Encode)
		case opReadlink:
			t.wire = encodeCall(w.tcp, proc, (&nfsproto.GetattrArgs{File: ds.links[rng.Intn(metaLinks)]}).Encode)
		case opRead:
			t.block = int32(rng.Intn(dataBlocks))
			t.wire = encodeCall(w.tcp, proc, (&nfsproto.ReadArgs{File: ds.data[t.block/fileBlocks],
				Offset: uint32(t.block%fileBlocks) * blockSize, Count: blockSize}).Encode)
		case opWrite:
			t.block = int32(rng.Intn(dataBlocks))
			payload := make([]byte, blockSize)
			fillBlock(payload, seed, uint32(dataBlocks+i))
			s.crc[dataBlocks+i] = crc32.ChecksumIEEE(payload)
			t.wire = encodeCall(w.tcp, proc, (&nfsproto.WriteArgs{File: ds.data[t.block/fileBlocks],
				Offset: uint32(t.block%fileBlocks) * blockSize, Data: mbuf.FromBytes(payload)}).Encode)
		case opCreate:
			created = true
			t.wire = encodeCall(w.tcp, proc, createArgs(ds.dir, scratchName, 0644).Encode)
		case opRemove:
			created = false
			t.wire = encodeCall(w.tcp, proc, (&nfsproto.DiropArgs{Dir: ds.dir, Name: scratchName}).Encode)
		}
		s.tmpl = append(s.tmpl, t)
	}
	h := sha256.New()
	for i := range s.tmpl {
		h.Write(s.tmpl[i].wire)
	}
	s.sha256 = hex.EncodeToString(h.Sum(nil))
	return s
}

func pickKind(mix []mixEntry, rng *rand.Rand) opKind {
	r := rng.Intn(100)
	for _, m := range mix {
		if r < m.weight {
			return m.kind
		}
		r -= m.weight
	}
	return mix[len(mix)-1].kind
}
