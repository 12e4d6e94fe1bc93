package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"renonfs/internal/mbuf"
)

// frag appends one record-marked fragment to a stream.
func frag(stream, p []byte, last bool) []byte {
	mark := uint32(len(p))
	if last {
		mark |= lastFrag
	}
	return append(binary.BigEndian.AppendUint32(stream, mark), p...)
}

// refSplit is the reference the scanner is held to: the whole stream in,
// every record copied out. held[i] is what Buffered() must report once
// stream[:i] has been fed — data of complete fragments of the unfinished
// record plus every byte behind them — and tooBig the stream offset whose
// feeding makes the oversize mark readable (-1: none).
func refSplit(stream []byte) (recs [][]byte, held []int, tooBig int) {
	held = make([]int, len(stream)+1)
	cur, at := []byte{}, 0
	for i := 0; ; {
		complete := len(stream)-i >= 4
		m, last := 0, false
		if complete {
			mark := binary.BigEndian.Uint32(stream[i:])
			m, last = int(mark&^lastFrag), mark&lastFrag != 0
			if len(cur)+m > MaxRecord {
				for ; at < i+4; at++ {
					held[at] = len(cur) + at - i
				}
				return recs, held[:i+4], i + 4
			}
			complete = len(stream)-i >= 4+m
		}
		end := len(stream) + 1
		if complete {
			end = i + 4 + m
		}
		for ; at < end; at++ {
			held[at] = len(cur) + at - i
		}
		if !complete {
			return recs, held, -1
		}
		cur = append(cur, stream[i+4:end]...)
		i = end
		if last {
			recs, cur = append(recs, cur), []byte{}
		}
	}
}

// checkScan feeds stream to a fresh scanner in the chunks cut yields — each
// copied whole into Space, or read into whatever Space offers the way a
// socket read does — and holds everything Next returns to refSplit: the same records in the
// same order (so none twice, none lost), each one intact for as long as it
// is promised (every record of a fill is re-read after the fill's last
// Next, then scribbled so that a scanner still counting on those bytes
// shows), Buffered() exact after every fill, and ErrRecordTooBig exactly
// when the reference says the stream crossed MaxRecord.
func checkScan(t testing.TB, stream []byte, direct bool, cut func(left int) int) {
	t.Helper()
	want, held, tooBig := refSplit(stream)
	var s RecordScanner
	got := 0
	for fed := 0; fed < len(stream); {
		n := min(max(cut(len(stream)-fed), 1), len(stream)-fed)
		if direct {
			n = copy(s.Space(1), stream[fed:fed+n])
			s.Fill(n)
		} else {
			s.Fill(copy(s.Space(n), stream[fed:fed+n]))
		}
		fed += n
		first := got
		var fill [][]byte
		for {
			rec, err := s.Next()
			if err != nil {
				if !errors.Is(err, ErrRecordTooBig) || tooBig < 0 || fed < tooBig {
					t.Fatalf("after %d bytes: %v, reference crosses MaxRecord at %d", fed, err, tooBig)
				}
				if got != len(want) {
					t.Fatalf("refused with %d of the %d records before the oversize one delivered", got, len(want))
				}
				return
			}
			if rec == nil {
				break
			}
			if got == len(want) {
				t.Fatalf("after %d bytes: record %d (%d bytes) is one more than the reference's %d", fed, got, len(rec), len(want))
			}
			fill = append(fill, rec)
			got++
		}
		if tooBig >= 0 && fed >= tooBig {
			t.Fatalf("after %d bytes: no error, reference crosses MaxRecord at %d", fed, tooBig)
		}
		for i, rec := range fill {
			if !bytes.Equal(rec, want[first+i]) {
				t.Fatalf("record %d: got %d bytes %.32x, want %d bytes %.32x", first+i, len(rec), rec, len(want[first+i]), want[first+i])
			}
		}
		for _, rec := range fill {
			for i := range rec {
				rec[i] = 0xA5
			}
		}
		if s.Buffered() != held[fed] {
			t.Fatalf("after %d bytes, %d records: Buffered() = %d, want %d", fed, got, s.Buffered(), held[fed])
		}
	}
	if got != len(want) {
		t.Fatalf("stream exhausted after %d records, reference has %d", got, len(want))
	}
}

// checkChainScan is checkScan for ChainScanner: stream fed as chains in the
// chunks cut yields (each chunk its own clusters and small mbufs, so marks
// and records straddle mbufs as well as chunks), the same records out in
// the same order, and ErrRecordTooBig exactly when the reference crosses
// MaxRecord. Every record is compared only once the whole stream is in,
// then freed: a record stays valid for as long as it is held, whatever
// follows it.
func checkChainScan(t testing.TB, stream []byte, cut func(left int) int) {
	t.Helper()
	want, _, tooBig := refSplit(stream)
	var s ChainScanner
	var recs []*mbuf.Chain
	check := func() {
		for i, rec := range recs {
			if got := rec.Bytes(); !bytes.Equal(got, want[i]) {
				t.Fatalf("record %d: got %d bytes %.32x, want %d bytes %.32x", i, len(got), got, len(want[i]), want[i])
			}
			rec.Free()
		}
	}
	for fed := 0; fed < len(stream); {
		n := min(max(cut(len(stream)-fed), 1), len(stream)-fed)
		s.Feed(mbuf.FromBytes(stream[fed : fed+n]))
		fed += n
		for {
			rec, err := s.Next()
			if err != nil {
				if !errors.Is(err, ErrRecordTooBig) || tooBig < 0 || fed < tooBig {
					t.Fatalf("after %d bytes: %v, reference crosses MaxRecord at %d", fed, err, tooBig)
				}
				if len(recs) != len(want) {
					t.Fatalf("refused with %d of the %d records before the oversize one delivered", len(recs), len(want))
				}
				check()
				return
			}
			if rec == nil {
				break
			}
			if len(recs) == len(want) {
				t.Fatalf("after %d bytes: record %d (%d bytes) is one more than the reference's %d", fed, len(recs), rec.Len(), len(want))
			}
			recs = append(recs, rec)
		}
		if tooBig >= 0 && fed >= tooBig {
			t.Fatalf("after %d bytes: no error, reference crosses MaxRecord at %d", fed, tooBig)
		}
	}
	if len(recs) != len(want) {
		t.Fatalf("stream exhausted after %d records, reference has %d", len(recs), len(want))
	}
	check()
}

// scannerSeeds are streams with a known shape, for the fuzzer to start from
// and for plain go test to run: the hand-kept cases this file replaced.
func scannerSeeds() [][]byte {
	multi := frag(nil, []byte("one-"), false)
	multi = frag(multi, []byte("two-"), false)
	multi = frag(multi, []byte("three"), true)
	multi = frag(multi, []byte("next"), true)
	empties := frag(nil, nil, false)
	empties = frag(empties, nil, true)
	empties = frag(empties, []byte("x"), false)
	empties = frag(empties, nil, false)
	empties = frag(empties, []byte("yz"), true)
	return [][]byte{
		frag(nil, []byte("hello rpc"), true),
		multi,
		empties,
		{0x80, 0x00, 0x00, 0x04, 1, 2, 3, 4, 0x80, 0, 0}, // a record, then half a mark
		{0x80, 0xff, 0xff, 0xff},                         // a mark over MaxRecord
		{},
	}
}

// FuzzRecordScanner: any byte stream, cut anywhere. cuts are chunk lengths,
// cycled (none: the whole stream at once); both ways of filling are run.
func FuzzRecordScanner(f *testing.F) {
	for _, s := range scannerSeeds() {
		f.Add(s, []byte{})
		f.Add(s, []byte{1})
		f.Add(s, []byte{3, 1, 7})
	}
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		for _, direct := range []bool{false, true} {
			i := 0
			checkScan(t, stream, direct, func(left int) int {
				if len(cuts) == 0 {
					return left
				}
				i++
				return int(cuts[i%len(cuts)])
			})
		}
		i := 0
		checkChainScan(t, stream, func(left int) int {
			if len(cuts) == 0 {
				return left
			}
			i++
			return int(cuts[i%len(cuts)])
		})
	})
}

// TestRecordScannerArbitrarySegmentation is the property the fuzzer checks,
// over streams the fuzzer would take long to find: records of every size
// class from empty to larger than the scanner's buffer, single- and
// multi-fragment, fed in chunks from one byte to more than a buffer.
func TestRecordScannerArbitrarySegmentation(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	for seed := int64(0); seed < int64(rounds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		sizes := []int{0, 1, 3, 100, 600, 8192 + 150, recordBuf - 4, recordBuf, 3 * recordBuf}
		var stream []byte
		for i, n := 0, 1+rng.Intn(30); i < n; i++ {
			rec := make([]byte, rng.Intn(1+sizes[rng.Intn(len(sizes))]))
			rng.Read(rec)
			for rng.Intn(4) == 0 && len(rec) > 0 { // split off a leading fragment
				k := rng.Intn(len(rec) + 1)
				stream, rec = frag(stream, rec[:k], false), rec[k:]
			}
			stream = frag(stream, rec, true)
		}
		stream = stream[:len(stream)-rng.Intn(min(len(stream), 9))] // and a cut-off tail
		chunk := []int{1, 7, 500, 9000, recordBuf, 2 * recordBuf}[rng.Intn(6)]
		checkScan(t, stream, seed%2 == 0, func(int) int { return 1 + rng.Intn(chunk) })
		checkChainScan(t, stream, func(int) int { return 1 + rng.Intn(chunk) })
	}
}

// TestRecordTooBig: MaxRecord bounds the assembled record, not a fragment.
// One mark over the bound is refused on sight; fragments that add up to
// exactly MaxRecord assemble; one byte more is refused at the mark that
// crosses, before its data is buffered.
func TestRecordTooBig(t *testing.T) {
	half := make([]byte, MaxRecord/2)
	for i := range half {
		half[i] = byte(i)
	}
	exact := frag(frag(nil, half, false), half, true)
	over := frag(frag(nil, half, false), append(half, 0), true)
	mark := frag(frag(nil, []byte("ok"), true), nil, true)
	binary.BigEndian.PutUint32(mark[len(mark)-4:], lastFrag|(MaxRecord+1))
	big := make([]byte, 0x000FFFFF)
	drip := frag(frag(nil, big, false), big, false) // a peer that never sends a last fragment

	for _, tc := range []struct {
		name   string
		stream []byte
		recs   int
		err    error
	}{
		{"one mark over", mark, 1, ErrRecordTooBig},
		{"fragments sum to MaxRecord", exact, 1, nil},
		{"fragments cross MaxRecord", over, 0, ErrRecordTooBig},
		{"unending fragments", drip, 0, ErrRecordTooBig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkScan(t, tc.stream, false, func(int) int { return 1000 })
			checkChainScan(t, tc.stream, func(int) int { return 1000 })
			// And as a connection would see it, to watch the buffer.
			var s RecordScanner
			var err error
			recs := 0
			for fed := 0; fed < len(tc.stream) && err == nil; {
				n := copy(s.Space(1), tc.stream[fed:])
				s.Fill(n)
				fed += n
				for {
					var rec []byte
					if rec, err = s.Next(); rec == nil {
						break
					}
					recs++
				}
			}
			if !errors.Is(err, tc.err) || recs != tc.recs {
				t.Errorf("%d records, err %v; want %d, %v", recs, err, tc.recs, tc.err)
			}
			if len(s.buf) > 2*MaxRecord {
				t.Errorf("buffer grew to %d bytes", len(s.buf))
			}
		})
	}
}

// TestAllocBudgetRecordIngest pins what ingest costs. Steady state — fills
// of whole single-fragment records, an 8 KB WRITE among them — allocates
// nothing and moves nothing: each record is the very bytes the read wrote.
// A record straddling two fills has its first part moved once, to the front
// of the buffer, and the rest read in behind it.
func TestAllocBudgetRecordIngest(t *testing.T) {
	small, write8k := make([]byte, 120), make([]byte, 8192+136)
	whole := frag(frag(frag(frag(nil, small, true), write8k, true), small[:100], true), write8k, true)
	var s RecordScanner
	// fill is one read of p and the scan of what it completed; inPlace also
	// checks each record is the very bytes the read wrote.
	fill := func(p []byte, inPlace bool) (recs int) {
		space := s.Space(1)
		s.Fill(copy(space, p))
		for off := 4; ; {
			rec, err := s.Next()
			if rec == nil || err != nil {
				return recs
			}
			if inPlace && &rec[0] != &space[off] {
				t.Fatalf("record %d is not where the read put it", recs)
			}
			off += len(rec) + 4
			recs++
		}
	}
	fill(whole, true) // the buffer's one allocation
	before := s.moved
	if got := testing.AllocsPerRun(100, func() {
		if fill(whole, true) != 4 {
			t.Fatal("lost a record")
		}
	}); got != 0 || s.moved != before {
		t.Errorf("whole records: %.1f allocs per fill, %d bytes moved; want 0 and 0", got, s.moved-before)
	}

	cut := len(whole) - 5000 // inside the last 8 KB record
	head := cut - (len(whole) - len(write8k) - 4)
	before = s.moved
	if got := testing.AllocsPerRun(100, func() {
		if a, b := fill(whole[:cut], true), fill(whole[cut:], false); a != 3 || b != 1 {
			t.Fatalf("straddler: %d + %d records", a, b)
		}
	}); got != 0 {
		t.Errorf("straddling record: %.1f allocs per pair of fills, want 0", got)
	}
	if per := (s.moved - before) / 101; per != head || head > len(write8k)+4 {
		t.Errorf("straddling record: %d bytes moved per record, want its first part (%d bytes) once", per, head)
	}
}
