package faults_test

import (
	"fmt"
	"strings"
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/faults"
)

// decision renders one operation's outcome as a token: "." for a
// success, else the fault kind's initial ("t"ransient, "T"imeout,
// "U"navailable) followed by the struck node when the fault names one;
// a latency factor other than 1 follows as "x<factor>".
func decision(fe *faults.Error, factor float64) string {
	tok := "."
	if fe != nil {
		tok = map[faults.Kind]string{faults.Transient: "t", faults.Timeout: "T", faults.Unavailable: "U"}[fe.Kind]
		if fe.Node >= 0 {
			tok += fmt.Sprint(fe.Node)
		}
	}
	if factor != 1 {
		tok += fmt.Sprintf("x%g", factor)
	}
	return tok
}

// decisions runs n operations through step and run-length encodes their
// tokens: a run of k > 1 equal tokens is written "tok*k", runs are
// separated by spaces.
func decisions(n int, step func(i int) (*faults.Error, float64)) string {
	var b strings.Builder
	prev, run := "", 0
	flush := func() {
		if run == 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(prev)
		if run > 1 {
			fmt.Fprintf(&b, "*%d", run)
		}
	}
	for i := 0; i < n; i++ {
		tok := decision(step(i))
		if tok != prev {
			flush()
			prev, run = tok, 0
		}
		run++
	}
	flush()
	return b.String()
}

// twoFamilyStore is a store with families "a" and "b", one record each.
func twoFamilyStore(t *testing.T) *backend.Store {
	t.Helper()
	s := backend.NewStore(cost.DefaultParams())
	for _, cf := range []string{"a", "b"} {
		def := backend.ColumnFamilyDef{Name: cf, PartitionCols: []string{"P"}, ClusteringCols: []string{"C"}, ValueCols: []string{"V"}}
		if err := s.Create(def); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put(cf, []backend.Value{int64(1)}, []backend.Value{int64(0)}, []backend.Value{int64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// injectorDecisions drives n gets alternating over families "a" and "b"
// through an injector whose default profile is p; a success's latency
// factor is its service time over the bare store's.
func injectorDecisions(t *testing.T, seed int64, p faults.Profile, n int) string {
	s := twoFamilyStore(t)
	req := backend.GetRequest{Partition: []backend.Value{int64(1)}}
	base, err := s.Get("a", req)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(s, seed)
	inj.SetDefaultProfile(p)
	return decisions(n, func(i int) (*faults.Error, float64) {
		res, err := inj.Get([]string{"a", "b"}[i%2], req)
		if err != nil {
			fe, ok := faults.AsFault(err)
			if !ok {
				t.Fatalf("op %d: non-fault error %v", i, err)
			}
			return fe, 1
		}
		return nil, res.SimMillis / base.SimMillis
	})
}

// nodeDecisions drives n decisions round-robin over a node set whose
// default profile is p.
func nodeDecisions(seed int64, nodes int, p faults.Profile, n int) string {
	ns := faults.NewNodes(seed, nodes)
	ns.SetDefaultProfile(p)
	return decisions(n, func(i int) (*faults.Error, float64) {
		return ns.Decide(i%nodes, "cf", "get")
	})
}

// TestFaultStreamsPinned holds every fault stream to the decisions it
// made when the family and node fault domains were first written: the
// same seed and operation sequence must draw the same faults, on the
// same nodes, with the same latency factors, whatever the model's
// internals look like.
func TestFaultStreamsPinned(t *testing.T) {
	cases := []struct {
		name, got, want string
	}{
		{"injector Rate(0.3) seed 42", injectorDecisions(t, 42, faults.Rate(0.3), 400), pinInjectorRate},
		{"nodes NodeRate(0.3) seed 7", nodeDecisions(7, 5, faults.NodeRate(0.3), 400), pinNodesRate},
		{"injector down window 3", injectorDecisions(t, 3, faults.Profile{TransientRate: 0.1, DownRate: 0.1, DownOps: 3}, 400), pinInjectorDown},
		{"nodes down window 3", nodeDecisions(3, 2, faults.Profile{TransientRate: 0.1, DownRate: 0.1, DownOps: 3}, 400), pinNodesDown},
		{"nodes slow window 2 x4", nodeDecisions(3, 2, faults.Profile{TransientRate: 0.1, SlowRate: 0.1, SlowOps: 2, SlowFactor: 4}, 400), pinNodesSlow},
	}
	for _, c := range cases {
		if want := strings.Join(strings.Fields(c.want), " "); c.got != want {
			t.Errorf("%s: decisions moved\n got: %s\nwant: %s", c.name, c.got, want)
		}
	}
}

// The decisions captured when the pins were written, wrapped at will:
// runs of whitespace compare as one space.
const (
	pinInjectorRate = `
		. t .*5 t . T .*3 t .*2 U T U . U . U . U t U . U . U t U t U T U
		. U t U . U . U . U . U . U . U . U t U . U . U t U . U t U .*6 t
		. t U . U . U . U . U . U t U t U . U . U . U . U . U . U . U t U
		. U . U t U . U t U . U . U . U . U . U t T .*3 t .*2 t .*7 t . t
		.*3 t T t .*2 t . U . U . U . U t U . U . U . U*38 . U . U . U . U
		. U . U . U .*2 t . t . t .*4 U . U t U . U . U . U . U . U t U t
		U . U T U . U . U . U . U . U . U . U . U . U . U . U t U . U t U
		T t .*11 T .*6 t .*4 T .*6 t .*2 T t U . U . U t U t U . U . U . U
		. U . U T U t U . U . U . U T U . U*20 . U . U t U t U . U*18`

	pinNodesRate = `
		. .x8 .*4 .x8 .*2 .x8 . .x8*2 . .x8 . .x8*2 t3 .x8 . t1 .x8 . t4 .
		.x8 U2 . .x8 t0 .x8 U2 . t4 .x8*2 U2 . .x8*2 t1 U2 . .x8*2 t1 U2
		.x8*4 U2 t3 t4 .x8 t1 U2 .x8 U4 .x8*2 U2 U3 U4 .x8*2 U2 U3 U4
		.x8*2 U2 U3 U4 .x8*2 U2 U3 U4 .x8*2 U2 U3 U4 .x8*2 U2 U3 U4 .x8*2
		U2 U3 U4 .x8 t1 U2 U3 U4 .x8*2 U2 U3 U4 .x8*2 U2 U3 U4 .x8 t1 U2
		U3 U4 .x8*2 U2 U3 U4 .x8*2 U2 U3 U4 .x8*2 U2 U3 U4 .x8*2 U2 U3 U4
		.x8 t1 U2 U3 U4 .x8*2 U2 U3 U4 .x8*2 U2 U3 U4 .x8 t1 U2 U3 U4
		.x8*2 U2 U3 U4 .x8*2 U2 U3 U4 t0 .x8 U2 U3 U4 .x8 t1 U2 U3 U4
		.x8*2 U2 U3 U4 .x8*2 U2 U3 U4 .x8*2 U2 U3 U4 .x8*2 U2 U3 U4 .x8*2
		U2 U3 U4 t0 .x8 U2 U3 U4 .x8 U1 U2 U3 U4 .x8 U1 U2 U3 U4 t0 U1 U2
		U3 U4 .x8 U1 U2 U3 U4 .x8 U1 U2 U3 U4 t0 U1 .x8 U3 U4 .x8 U1 .x8
		U3 U4 t0 U1 .x8 U3 U4 .x8 U1 .x8 U3 U4 t0 U1 .x8 U3 U4 .x8 U1 .x8
		U3 U4 t0 U1 .x8 U3 . .x8 U1 t2 .x8 . .x8 U1 t2 .x8 . .x8 U1 .x8*2
		. .x8 U1 .x8*2 . U0 U1 .x8*2 . U0 U1 U2 .x8 . U0 U1 U2 .x8 t4 U0
		U1 U2 .x8 . U0 U1 U2 t3 t4 U0 U1 U2 .x8 . U0 U1 U2 .x8 . U0 U1 U2
		.x8 . U0 U1 U2 .x8 . U0 U1 U2 .x8*2 U0 U1 U2 .x8 t4 U0 U1 U2 .x8*2
		U0 U1 U2 .x8*2 U0 U1 U2 .x8*2 U0 U1 U2 .x8*2 U0 U1 U2 t3 .x8 U0 U1
		U2 t3 t4 U0 U1 U2 .x8 t4 U0 U1 U2 .x8*2 U0 U1 U2 .x8*2 U0 U1 U2
		.x8*2 U0 U1 U2 .x8*2 U0 U1 U2 t3 t4`

	pinInjectorDown = `
		.*6 U . U*6 . U .*5 t .*4 t*2 .*2 t U . U t U . U . t .*5 U . U .
		U t U .*2 t .*2 U . U . U . U .*8 t U . U . U . U .*16 U . U . U .
		U .*2 U*8 .*3 t U . U . U . U .*3 U . U . U . U .*2 U . U . U . U
		. U t U . U . U .*7 t . t*2 .*10 U . U . U . U . U . U . U . U
		.*10 t .*4 U t U . U . U*2 . U t U . U . U*8 .*2 t .*2 U . U . U .
		U .*4 t U . U t U . U . U . U . U . U t . U . U t U*4 . U*9 t U*2
		. U . U . U*2 . U . U . U*9 .*2 U*8 .*2 U . U . U . U t*2 .*9 t .
		t .*9 t .*2 t .*5 U t U . U*4 t U . U t .*2 t .*6 U . U . U . U
		.*13 t .*5`

	pinNodesDown = `
		. t1 .*5 t1 t0 .*6 U1 . U1 . U1 . U1 t0 .*6 U1 . U1 . U1 . U1 U0 .
		U0 . U0 . U0 .*4 t1 .*8 t0 t1 .*3 t1 . U1 . U1 . U1 t0 U1 .*8 U0 .
		U0 U1 U0 U1 U0 U1 . U1 .*10 t0 .*3 U0 t1 U0 . U0 U1 U0 U1 . U1 .
		U1 .*2 t0 .*3 t0 . U0 t1 U0 . U0 . U0 U1 . U1 t0 U1 . U1 .*3 t1
		.*5 t1 .*7 U1 . U1 . U1 . U1 .*7 U1 t0 U1 . U1 t0 U1 .*6 U0 . U0 .
		U0 . U0 .*5 t0 . t0 .*3 U0 . U0 . U0 . U0 t1 .*2 t0 . U0 . U0 . U0
		. U0 .*4 U1 . U1 . U1 . U1 .*2 U0 . U0 U1 U0 U1 U0 U1 . U1 .*4 U0
		. U0 . U0 U1 U0 U1 . U1 . U1 . t1 . t1 .*2 t0 U1 . U1 . U1 . U1
		.*2 U0 . U0 . U0 . U0 .*2 t1 . U1 . U1 t0 U1 t0 U1 .*5 U1 . U1 .
		U1 . U1 .*4 U0 . U0 . U0 . U0 U1 . U1 . U1 . U1 .*9 t1 .*2 U0 . U0
		t1 U0 . U0 .*8 U1 . U1 . U1 U0 U1 U0 . U0 . U0 t1 . U1 U0 U1 U0 U1
		U0 U1 U0 .*6 t1 .*2 U0 . U0 . U0 . U0 .*6 t1 .*2 t0 .*5`

	pinNodesSlow = `
		. t1 .*5 t1 t0 .*6 .x4 . .x4 . .x4 .*2 t0 .x4 . .x4 . .x4 .*7 t1
		.x4 . .x4 . .x4 .*4 t1 .*3 t1 t0 .x4 . .x4 . .x4 .*6 t0 .x4 . .x4
		. .x4 .*4 .x4 . .x4 . .x4 .*2 t1 .*3 .x4 . .x4 t0 .x4 .*2 .x4 .
		.x4 t1 .x4 .*3 t0 .x4 . .x4 t0 t1 .x4 . .x4 . t0 t1 .*7 .x4 . .x4
		. .x4 .*3 .x4 . .x4 . .x4 .*14 t0 .*3 t0 .*7 .x4 t1 .x4 . .x4 . t0
		. t0 .*3 .x4 . .x4 . t0 .x4*7 . .x4 . .x4 .*4 .x4*3 t1 .x4 t1 .*2
		.x4*6 .*6 t0 t1 . .x4 . .x4 . .x4 . .x4*6 .*3 t0 . t0 .x4 . .x4 .
		.x4 .*5 t1 .*5 t1 .x4 . .x4 . .x4 .*6 .x4 . .x4 . .x4 . t1 . .x4*6
		.*2 t1 .*6 .x4 . .x4 . .x4 . .x4 . .x4 t1 .*4 .x4 . .x4 . .x4 .*4
		.x4 t0 .x4 . .x4 .*21 .x4 t0 .x4 . .x4 . .x4 . .x4 .*4 t0 t1 . t1
		.*12 .x4*3 t1 .x4*3 .*5 t0 .*2 t1 .*4 .x4 . .x4*6 .*14`
)
