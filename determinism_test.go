package renonfs

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"
	"testing"
)

// quickTablesAt1991 pins every quick table at seed 1991: sha256 over the
// String() of the experiment's tables in order, the fingerprint
// benchmark/simtables.go prints. Eighteen are what the commit before the
// coroutine kernel printed, so a kernel that reordered one event fails here;
// saturation was not reproducible there (two calls expiring in one NFS tick
// were retransmitted in map order) and is pinned from this one. ablations
// was re-pinned when the rows its knobs could not move were deleted; every
// row it kept prints the same bytes. graph1-graph5 and saturation were
// re-pinned, here and in the two pins below, when their p99 cells became
// exact order statistics and they gained an n column; every mean, rate and
// retry cell of Graphs 1-5 prints the same bytes.
var quickTablesAt1991 = map[string]string{
	"graph1":     "07254e29f9d27b38d34e63603664adc4ffec4cda10617ca1908fe78003b97c96",
	"graph2":     "191e2212a715e5b38234434139e72372289ad806183f41061a02b33c4aac497c",
	"graph3":     "a984840a2a0f3811a4cfd6e00138da56a7cf0e5e6e97f2879efd42dac3872213",
	"graph4":     "f56fb96fe118bd674e97dbcbd06328e29642db544311d3fc884e271b8e5e3a35",
	"graph5":     "f9f21f0df1388ddcb358c115e63b3367c2904ef552bfae54b10c9d9e24aaaefd",
	"table1":     "8c23b0ff2e714c855c3020feb1dedfbd24f34689419cfaa97f3e5c5213d502a1",
	"graph6":     "fe9719d19a7f65bf3e5890d902f43e47f9e4f6e502400b798641ea0455b92323",
	"graph7":     "212e62d0fa4279571806c5d3c27da73ec2721d78bc7fbb94ffc10f590545037b",
	"graph8":     "d131d2f1a1b64c9301b6c71569398243988e7153c34bc43a1b07d751f234eaa8",
	"graph9":     "696043dba3985ae0322d4f24c21fd35a43d71973e78ad1ced80f67ad79269fa5",
	"profile3":   "51e7fd73ca2ab30bf8a0faee9e2ca5ab40002b396b23dda44b457cb281d34d6b",
	"table2":     "e48f5a1f41bde1f0b7b0849048145f7123829afb2c904fcb2db584dcb8b4b18e",
	"table3":     "addccb8c19d18543a4f7c092a4bbd8886d2839cff4d32e27f83ad00cca57e6a8",
	"table4":     "644eb6ce1a25c25738e4e0f183f95495c651e230552e932d10402441e037afa7",
	"table5":     "70a4e59402e1d01545a591d2f9cc24396f240ff7922e57f78e041eb5196b3911",
	"appendixA":  "7c7be6c87c7143cb85cc1ca3cc33b9520d909e2ac875adcd850b06e84a3259e9",
	"ablations":  "6b8ef7dca8c94cf3d1d4028d7a6d2db28c1ca99c64791d27679d5f7ca2cc4dd9",
	"futurework": "5b64d8f91d026435634d3c68679ba08bc4fd7fa2575010e10122ed9b9e6d7a8a",
	"saturation": "29f6f2b877a9d77e1925605ed1fb4475c107b1a28abb43b7591e6d9f01559289",
}

// quickTablesAt1 pins the same quick tables at seed 1, taken from the commit
// before parked processes ran due callbacks themselves: a kernel reorder that
// seed 1991 happens not to expose fails here.
var quickTablesAt1 = map[string]string{
	"graph1":     "a37885f2dfd85a629d23756c9a73cbd420196d9567741835d10c7e038bb3efd0",
	"graph2":     "4500c3c4b4ca190f404fd6b655e385f0362c601c3f610e5d82e281573abd288d",
	"graph3":     "20fab29d00e25efed6c67b157b33a487ffa6c1200050e40aeaf011ca46e5fdda",
	"graph4":     "16550436168af8e809aa86019f9d309c1bb3f929501a26f49bd861c8e78bb3e4",
	"graph5":     "94d72e10d9819a584777441a93e90aa9170986bc6f5efb50d559b32d80625598",
	"table1":     "5493c25e818bbeceeafddac0519b5b5230b942ded31984b141ecbe6de12091c2",
	"graph6":     "36f84467e66d66eb33b1e84cefa7622ca627d8c958ee045fb6007b2e3271b61d",
	"graph7":     "cde25053b6ac31c265c52459b4b1a9024b2f34e2e6c50beee89f49e0f1f6c496",
	"graph8":     "b5a16e23b5c58e1b857464bccb00fe5f3aa7510204303a2fb0c907492a5aaeb2",
	"graph9":     "0cfd47a1fb8746fff425bf1e19d948216937f94a4d7e8e0f8aebddb578097b4c",
	"profile3":   "be682fb2dfb0e20cc250e88480ba665ed3980852f7607deacfec36e2bcabcbaf",
	"table2":     "8a1dc18529662c454fd74a4abfde3baed55aec1f2b8f0f8a2bb6984c57263f97",
	"table3":     "7604e97a0509a36a3127fd4042a20e8bf0beb8d5ac2e037854260f5b5ba2ab92",
	"table4":     "7aa5bedcefe4ba32f60b7459fa17a800e29155bc27c3826b011f1dde129d6795",
	"table5":     "a9bf1daad1f590cd7df95d180d0663ca172efd3e85e701899f6a4cd70d4c7030",
	"appendixA":  "c455b3adcaca079c6c8635be9333dfb1775e074190c1e9baaee759e84d1daadc",
	"ablations":  "475b0353161c57bc9426bcad0b62a58f7239b35521428138c6328c7f41d83c41",
	"futurework": "c4d24dcdf8663d731ad2a23d280d7d05c752d63d8b7b7f0c1a772eba9e26a158",
	"saturation": "f659ea778b7511b6e3003e3553bef22db9c2a13cc108d73eb953d84d76022957",
}

// fullTablesAt1991 is one sha256 over every experiment's full-mode tables at
// seed 1991, in Experiments() order and the text form of the quick hashes.
// Full windows reach the long idle stretches the quick ones cut short.
const fullTablesAt1991 = "fe95683f54a8b13e88abac03c23c2f311dc6965d135a2aae6b426023e4dfb566"

// tables runs one experiment and holds it to the verdicts
// benchmark/simtables.go gives each one: it returns a table, every table
// has rows, and no cell reads NaN or Inf.
func tables(t *testing.T, id string, cfg ExpConfig) []string {
	t.Helper()
	tabs, err := RunExperiment(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) == 0 {
		t.Errorf("%s at seed %d: no table", id, cfg.Seed)
	}
	text := make([]string, len(tabs))
	for i, tb := range tabs {
		text[i] = tb.String()
		if len(tb.Rows) == 0 || strings.Contains(text[i], "NaN") || strings.Contains(text[i], "Inf") {
			t.Errorf("%s at seed %d: an empty table or a NaN or Inf cell:\n%s", id, cfg.Seed, text[i])
		}
	}
	return text
}

// TestQuickTablesGolden runs the quick pass at seeds 1991 and 1 and holds
// every experiment's tables to both pins.
func TestQuickTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("all 19 experiments, twice")
	}
	exps := Experiments()
	for _, pin := range []struct {
		seed   int64
		hashes map[string]string
	}{{1991, quickTablesAt1991}, {1, quickTablesAt1}} {
		seed, pinned := pin.seed, pin.hashes
		if len(exps) != len(pinned) {
			t.Fatalf("%d experiments, %d pinned at seed %d", len(exps), len(pinned), seed)
		}
		for _, e := range exps {
			h := sha256.New()
			for _, text := range tables(t, e.ID, ExpConfig{Quick: true, Seed: seed}) {
				io.WriteString(h, text)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pinned[e.ID] {
				t.Errorf("%s at seed %d: tables hash %s, pinned %s", e.ID, seed, got, pinned[e.ID])
			}
		}
	}
}

func TestFullTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("all 19 experiments, full windows")
	}
	h := sha256.New()
	for _, e := range Experiments() {
		for _, text := range tables(t, e.ID, ExpConfig{Seed: 1991}) {
			io.WriteString(h, text)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fullTablesAt1991 {
		t.Errorf("full-mode tables hash %s, pinned %s", got, fullTablesAt1991)
	}
}

// TestSameSeedSameTables runs three experiments twice in one process: one
// seed must print one set of tables. saturation is the one that retransmits
// several calls in one tick, table5 the one with write-behind and leases.
func TestSameSeedSameTables(t *testing.T) {
	for _, id := range []string{"saturation", "graph1", "table5"} {
		cfg := ExpConfig{Quick: true, Seed: 1991}
		a, b := tables(t, id, cfg), tables(t, id, cfg)
		if len(a) != len(b) {
			t.Fatalf("%s: %d tables, then %d", id, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: two runs at one seed differ:\n%s\n%s", id, a[i], b[i])
			}
		}
	}
}
