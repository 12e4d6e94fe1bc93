// Package workload re-creates the three benchmarks the paper measures
// with: an Nhfsstone-style NFS load generator (§4, Graphs 1-6, Table 1),
// a Modified-Andrew-style client workload (§5, Tables 2-4), and the
// Ousterhout Create-Delete benchmark (§5, Table 5).
package workload

import (
	"fmt"
	"math/rand"
	"slices"

	"renonfs/internal/nfsproto"
	"renonfs/internal/sim"
	"renonfs/internal/stats"
	"renonfs/internal/transport"
	"renonfs/internal/xdr"
)

// NhfsstoneConfig parameterizes the load generator. Like the original, it
// issues NFS RPCs directly over a transport (bypassing the client cache) at
// a target aggregate rate, against a preloaded subtree.
type NhfsstoneConfig struct {
	// Mix maps procedure → fraction of the load (fractions should sum
	// to 1).
	Mix map[uint32]float64
	// Rate is the target aggregate RPC rate (calls/second).
	Rate float64
	// Procs is the number of load-generating processes.
	Procs int
	// Duration measures after Warmup.
	Duration sim.Time
	Warmup   sim.Time
	// NumFiles and FileSize shape the preloaded subtree. The appendix
	// warns that empty files bias read results, so files are preloaded
	// with FileSize bytes before each run.
	NumFiles int
	FileSize int
	// LongNames uses >31-character names, which defeats the Reno server's
	// name cache (the appendix's first caveat).
	LongNames bool
	// OnMeasure, when set, is invoked at the instant warmup ends and
	// measurement begins (used to reset server CPU accounting).
	OnMeasure func()
}

// DefaultLookupMix is the 100% lookup load.
func DefaultLookupMix() map[uint32]float64 {
	return map[uint32]float64{nfsproto.ProcLookup: 1.0}
}

// ReadLookupMix is the 50/50 read/lookup load.
func ReadLookupMix() map[uint32]float64 {
	return map[uint32]float64{nfsproto.ProcLookup: 0.5, nfsproto.ProcRead: 0.5}
}

// FullMix is the nhfsstone default operation mix (lookup-dominant with 8%
// writes and a trickle of everything else, per [Legato89]). The paper's
// transport graphs avoid the mutating operations so the subtree stays
// stable; this mix exercises the full server the way the original tool's
// default did.
func FullMix() map[uint32]float64 {
	return map[uint32]float64{
		nfsproto.ProcGetattr:  0.13,
		nfsproto.ProcSetattr:  0.01,
		nfsproto.ProcLookup:   0.34,
		nfsproto.ProcReadlink: 0.08,
		nfsproto.ProcRead:     0.22,
		nfsproto.ProcWrite:    0.15,
		nfsproto.ProcCreate:   0.02,
		nfsproto.ProcRemove:   0.01,
		nfsproto.ProcReaddir:  0.03,
		nfsproto.ProcStatfs:   0.01,
	}
}

// NhfsstoneResult reports what the generator measured.
type NhfsstoneResult struct {
	// RTT per procedure: every measured round trip, in ms.
	RTT map[uint32]*stats.Samples
	// Achieved is the measured aggregate call rate.
	Achieved float64
	// Rate per procedure (the paper's Table 1 reports read rates).
	ProcRate map[uint32]float64
	// Retries and Failures from the transport.
	Retries  int
	Failures int
	// Elapsed is the measurement window.
	Elapsed sim.Time
}

// ReadRate returns the measured read RPCs per second.
func (r *NhfsstoneResult) ReadRate() float64 { return r.ProcRate[nfsproto.ProcRead] }

// Nhfsstone drives the load. The caller provides the environment, the
// transport to exercise, and the exported root handle; Preload must have
// been run first (it returns the target file handles).
type Nhfsstone struct {
	Cfg   NhfsstoneConfig
	Tr    transport.Transport
	Root  nfsproto.FH
	files []nhFile
	links []string // preloaded symlink names for readlink ops
	temp  nhTemp
	zeros [nfsproto.MaxData]byte // every WRITE's data, copied into its chain per encode
}

type nhFile struct {
	name string
	fh   nfsproto.FH
}

// temp files created and removed by the mutating mix.
type nhTemp struct {
	name string
	next int
}

// fileName derives the i-th test file name, optionally long enough to
// defeat 31-character name caches.
func (c *NhfsstoneConfig) fileName(i int) string {
	if c.LongNames {
		return fmt.Sprintf("nhfsstone-test-file-with-a-very-long-name-%06d", i)
	}
	return fmt.Sprintf("nh%04d", i)
}

// Preload creates the subtree over the transport: NumFiles files of
// FileSize bytes, so reads have real data to move (the appendix's second
// caveat). It runs in the calling process. A Rate that is not positive,
// which Run's pacing would make a closed loop, is an error.
func (n *Nhfsstone) Preload(p *sim.Proc) error {
	if !(n.Cfg.Rate > 0) {
		return fmt.Errorf("nhfsstone: rate %v RPC/s is not positive", n.Cfg.Rate)
	}
	if n.Cfg.NumFiles == 0 {
		n.Cfg.NumFiles = 50
	}
	if n.Cfg.FileSize == 0 {
		n.Cfg.FileSize = nfsproto.MaxData
	}
	if n.Cfg.Procs == 0 {
		n.Cfg.Procs = 4
	}
	content := make([]byte, n.Cfg.FileSize)
	for i := range content {
		content[i] = byte(i)
	}
	for i := 0; i < n.Cfg.NumFiles; i++ {
		name := n.Cfg.fileName(i)
		attr := nfsproto.NewSattr()
		attr.Mode = 0644
		d, err := n.Tr.Call(p, nfsproto.ProcCreate, func(e *xdr.Encoder) {
			(&nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: n.Root, Name: name}, Attr: attr}).Encode(e)
		})
		if err != nil {
			return fmt.Errorf("preload create %s: %w", name, err)
		}
		res, err := nfsproto.DecodeDiropRes(d)
		n.Tr.Release(d)
		if err != nil || res.Status != nfsproto.OK {
			return fmt.Errorf("preload create %s: %v %v", name, res, err)
		}
		fh := res.File
		for off := 0; off < n.Cfg.FileSize; off += nfsproto.MaxData {
			end := off + nfsproto.MaxData
			if end > n.Cfg.FileSize {
				end = n.Cfg.FileSize
			}
			chunk := content[off:end]
			off32 := uint32(off)
			d, err := n.Tr.Call(p, nfsproto.ProcWrite, func(e *xdr.Encoder) {
				(&nfsproto.WriteArgs{File: fh, Offset: off32, Data: chainOf(chunk)}).Encode(e)
			})
			if err != nil {
				return fmt.Errorf("preload write: %w", err)
			}
			wres, err := nfsproto.DecodeAttrRes(d)
			n.Tr.Release(d)
			if err != nil || wres.Status != nfsproto.OK {
				return fmt.Errorf("preload write: %v %v", wres, err)
			}
		}
		n.files = append(n.files, nhFile{name, fh})
	}
	if n.Cfg.Mix[nfsproto.ProcReadlink] > 0 {
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("nhlink%d", i)
			attr := nfsproto.NewSattr()
			d, err := n.Tr.Call(p, nfsproto.ProcSymlink, func(e *xdr.Encoder) {
				(&nfsproto.SymlinkArgs{
					From: nfsproto.DiropArgs{Dir: n.Root, Name: name},
					To:   "/export/target", Attr: attr,
				}).Encode(e)
			})
			if err != nil {
				return fmt.Errorf("preload symlink: %w", err)
			}
			res, err := nfsproto.DecodeStatusRes(d)
			n.Tr.Release(d)
			if err != nil || (res.Status != nfsproto.OK && res.Status != nfsproto.ErrExist) {
				// EXIST is fine: another client of a shared subtree made it.
				return fmt.Errorf("preload symlink: %v %v", res, err)
			}
			n.links = append(n.links, name)
		}
	}
	return nil
}

// Run launches the load processes and blocks the calling process until the
// measurement window completes, returning the results.
func (n *Nhfsstone) Run(p *sim.Proc) *NhfsstoneResult {
	env := p.Env()
	res := &NhfsstoneResult{
		RTT:      make(map[uint32]*stats.Samples),
		ProcRate: make(map[uint32]float64),
	}
	mix := NewPicker(n.Cfg.Mix)
	for proc := range n.Cfg.Mix {
		res.RTT[proc] = new(stats.Samples)
	}
	measuring := false
	retriesBase := n.Tr.Stats().Retries
	failuresBase := n.Tr.Stats().Failures

	done := sim.NewEvent(env)
	finished := 0
	perProcRate := n.Cfg.Rate / float64(n.Cfg.Procs)
	for w := 0; w < n.Cfg.Procs; w++ {
		env.Spawn(fmt.Sprintf("nhfsstone-%d", w), func(lp *sim.Proc) {
			defer func() {
				finished++
				if finished == n.Cfg.Procs {
					done.Set()
				}
			}()
			rng := lp.Rand()
			end := lp.Now() + n.Cfg.Warmup + n.Cfg.Duration
			for lp.Now() < end {
				// Poisson pacing toward the target rate.
				lp.Sleep(sim.Time(rng.ExpFloat64() / perProcRate * 1e9))
				if lp.Now() >= end {
					return
				}
				proc := mix.Pick(rng)
				start := lp.Now()
				err := n.issue(lp, rng, proc)
				if err != nil {
					continue
				}
				if measuring {
					res.RTT[proc].Add(lp.Now() - start)
				}
			}
		})
	}
	// Warmup gate.
	if n.Cfg.Warmup > 0 {
		p.Sleep(n.Cfg.Warmup)
	}
	measuring = true
	if n.Cfg.OnMeasure != nil {
		n.Cfg.OnMeasure()
	}
	measureStart := p.Now()
	done.Wait(p)
	res.Elapsed = p.Now() - measureStart
	if res.Elapsed > 0 {
		total := 0
		secs := float64(res.Elapsed) / 1e9
		for proc, s := range res.RTT {
			if s.Count > 0 {
				res.ProcRate[proc] = float64(s.Count) / secs
				total += s.Count
			}
		}
		res.Achieved = float64(total) / secs
	}
	res.Retries = n.Tr.Stats().Retries - retriesBase
	res.Failures = n.Tr.Stats().Failures - failuresBase
	return res
}

// Picker draws procedures from a mix's weights, taken in procedure order so
// that a seed draws the same sequence whatever the map's iteration order.
type Picker struct {
	procs []uint32
	cum   []float64
}

// NewPicker compiles a procedure → weight mix.
func NewPicker(mix map[uint32]float64) Picker {
	var pk Picker
	for proc := range mix {
		pk.procs = append(pk.procs, proc)
	}
	slices.Sort(pk.procs)
	acc := 0.0
	for _, proc := range pk.procs {
		acc += mix[proc]
		pk.cum = append(pk.cum, acc)
	}
	return pk
}

// Pick draws one procedure.
func (pk Picker) Pick(rng *rand.Rand) uint32 {
	r := rng.Float64() * pk.cum[len(pk.cum)-1]
	for i, c := range pk.cum {
		if r <= c {
			return pk.procs[i]
		}
	}
	return pk.procs[len(pk.procs)-1]
}

// issue sends one RPC of the given kind at a random file.
func (n *Nhfsstone) issue(lp *sim.Proc, rng *rand.Rand, proc uint32) error {
	f := n.files[rng.Intn(len(n.files))]
	var d *xdr.Decoder
	var err error
	switch proc {
	case nfsproto.ProcLookup:
		d, err = n.Tr.Call(lp, nfsproto.ProcLookup, func(e *xdr.Encoder) {
			(&nfsproto.DiropArgs{Dir: n.Root, Name: f.name}).Encode(e)
		})
	case nfsproto.ProcGetattr:
		d, err = n.Tr.Call(lp, nfsproto.ProcGetattr, func(e *xdr.Encoder) {
			(&nfsproto.GetattrArgs{File: f.fh}).Encode(e)
		})
	case nfsproto.ProcRead:
		count := uint32(nfsproto.MaxData)
		if n.Cfg.FileSize < nfsproto.MaxData {
			count = uint32(n.Cfg.FileSize)
		}
		d, err = n.Tr.Call(lp, nfsproto.ProcRead, func(e *xdr.Encoder) {
			(&nfsproto.ReadArgs{File: f.fh, Offset: 0, Count: count}).Encode(e)
		})
		if err == nil {
			var res *nfsproto.ReadRes
			if res, err = nfsproto.DecodeReadRes(d); err == nil && res.Data != nil {
				res.Data.Free()
			}
		}
	case nfsproto.ProcReaddir:
		d, err = n.Tr.Call(lp, nfsproto.ProcReaddir, func(e *xdr.Encoder) {
			(&nfsproto.ReaddirArgs{Dir: n.Root, Cookie: 0, Count: 4096}).Encode(e)
		})
	case nfsproto.ProcWrite:
		count := nfsproto.MaxData
		if n.Cfg.FileSize < count {
			count = n.Cfg.FileSize
		}
		if count == 0 {
			count = 512
		}
		data := n.zeros[:count]
		d, err = n.Tr.Call(lp, nfsproto.ProcWrite, func(e *xdr.Encoder) {
			(&nfsproto.WriteArgs{File: f.fh, Offset: 0, Data: chainOf(data)}).Encode(e)
		})
		if err == nil {
			_, err = nfsproto.DecodeAttrRes(d)
		}
	case nfsproto.ProcSetattr:
		attr := nfsproto.NewSattr()
		attr.Mode = 0644
		d, err = n.Tr.Call(lp, nfsproto.ProcSetattr, func(e *xdr.Encoder) {
			(&nfsproto.SetattrArgs{File: f.fh, Attr: attr}).Encode(e)
		})
	case nfsproto.ProcReadlink:
		if len(n.links) == 0 {
			return nil
		}
		link := n.links[rng.Intn(len(n.links))]
		d, err = n.Tr.Call(lp, nfsproto.ProcLookup, func(e *xdr.Encoder) {
			(&nfsproto.DiropArgs{Dir: n.Root, Name: link}).Encode(e)
		})
		if err == nil {
			res, derr := nfsproto.DecodeDiropRes(d)
			n.Tr.Release(d)
			d = nil
			if derr == nil && res.Status == nfsproto.OK {
				d, err = n.Tr.Call(lp, nfsproto.ProcReadlink, func(e *xdr.Encoder) {
					(&nfsproto.GetattrArgs{File: res.File}).Encode(e)
				})
			}
		}
	case nfsproto.ProcCreate:
		n.temp.next++
		name := fmt.Sprintf("nhtmp%05d", n.temp.next)
		attr := nfsproto.NewSattr()
		attr.Mode = 0644
		d, err = n.Tr.Call(lp, nfsproto.ProcCreate, func(e *xdr.Encoder) {
			(&nfsproto.CreateArgs{Where: nfsproto.DiropArgs{Dir: n.Root, Name: name}, Attr: attr}).Encode(e)
		})
		if err == nil {
			n.temp.name = name
		}
	case nfsproto.ProcRemove:
		if n.temp.name == "" {
			return nil
		}
		name := n.temp.name
		n.temp.name = ""
		d, err = n.Tr.Call(lp, nfsproto.ProcRemove, func(e *xdr.Encoder) {
			(&nfsproto.DiropArgs{Dir: n.Root, Name: name}).Encode(e)
		})
	case nfsproto.ProcStatfs:
		d, err = n.Tr.Call(lp, nfsproto.ProcStatfs, func(e *xdr.Encoder) {
			(&nfsproto.GetattrArgs{File: n.Root}).Encode(e)
		})
	default:
		d, err = n.Tr.Call(lp, nfsproto.ProcGetattr, func(e *xdr.Encoder) {
			(&nfsproto.GetattrArgs{File: f.fh}).Encode(e)
		})
	}
	if d != nil {
		n.Tr.Release(d)
	}
	return err
}
