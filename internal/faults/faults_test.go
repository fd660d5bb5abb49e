package faults_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/faults"
)

func newTestStore(t *testing.T) *backend.Store {
	t.Helper()
	s := backend.NewStore(cost.DefaultParams())
	def := backend.ColumnFamilyDef{
		Name:           "cf",
		PartitionCols:  []string{"P"},
		ClusteringCols: []string{"C"},
		ValueCols:      []string{"V"},
	}
	if err := s.Create(def); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if _, err := s.Put("cf", []backend.Value{int64(1)}, []backend.Value{i}, []backend.Value{i}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func get(inj *faults.Injector) (*backend.GetResult, error) {
	return inj.Get("cf", backend.GetRequest{Partition: []backend.Value{int64(1)}})
}

func TestTransparentWithoutProfiles(t *testing.T) {
	s := newTestStore(t)
	inj := faults.New(s, 1)
	direct, err := s.Get("cf", backend.GetRequest{Partition: []backend.Value{int64(1)}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		res, err := get(inj)
		if err != nil {
			t.Fatalf("op %d: unexpected fault %v", i, err)
		}
		if res.SimMillis != direct.SimMillis {
			t.Fatalf("op %d: sim %v != direct %v", i, res.SimMillis, direct.SimMillis)
		}
	}
}

func TestDeterministicFaultSequence(t *testing.T) {
	run := func() []string {
		s := newTestStore(t)
		inj := faults.New(s, 42)
		inj.SetDefaultProfile(faults.Rate(0.3))
		var seq []string
		for i := 0; i < 200; i++ {
			_, err := get(inj)
			if err == nil {
				seq = append(seq, "ok")
				continue
			}
			fe, ok := faults.AsFault(err)
			if !ok {
				t.Fatalf("non-fault error: %v", err)
			}
			seq = append(seq, fe.Kind.String())
		}
		return seq
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("same seed produced different fault sequences")
	}
	// A 30% blended rate over 200 ops must fire at least once.
	faulted := false
	for _, k := range a {
		if k != "ok" {
			faulted = true
		}
	}
	if !faulted {
		t.Error("no faults injected at 30% rate over 200 ops")
	}

	s := newTestStore(t)
	other := faults.New(s, 43)
	other.SetDefaultProfile(faults.Rate(0.3))
	var seq []string
	for i := 0; i < 200; i++ {
		_, err := get(other)
		if err == nil {
			seq = append(seq, "ok")
		} else if fe, ok := faults.AsFault(err); ok {
			seq = append(seq, fe.Kind.String())
		}
	}
	if fmt.Sprint(a) == fmt.Sprint(seq) {
		t.Error("different seeds produced identical fault sequences")
	}
}

func TestClassification(t *testing.T) {
	tr := &faults.Error{Kind: faults.Transient, SimMillis: 0.5}
	to := &faults.Error{Kind: faults.Timeout, SimMillis: 50}
	un := &faults.Error{Kind: faults.Unavailable}
	if !faults.Retryable(tr) || !faults.Retryable(to) {
		t.Error("transient and timeout faults must be retryable")
	}
	if faults.Retryable(un) {
		t.Error("unavailability must not be retryable")
	}
	if faults.Retryable(errors.New("boom")) {
		t.Error("non-fault errors must not be retryable")
	}
	wrapped := fmt.Errorf("outer: %w", to)
	if !faults.Retryable(wrapped) {
		t.Error("classification must see through wrapping")
	}
	if got := faults.SimCost(wrapped); got != 50 {
		t.Errorf("SimCost(wrapped timeout) = %v, want 50", got)
	}
	if got := faults.SimCost(errors.New("boom")); got != 0 {
		t.Errorf("SimCost(non-fault) = %v, want 0", got)
	}
}

func TestMarkDownAndWindow(t *testing.T) {
	s := newTestStore(t)
	inj := faults.New(s, 7)
	inj.MarkDown("cf")
	_, err := get(inj)
	fe, ok := faults.AsFault(err)
	if !ok || fe.Kind != faults.Unavailable {
		t.Fatalf("marked-down get: %v, want unavailable fault", err)
	}
	inj.MarkUp("cf")
	if _, err := get(inj); err != nil {
		t.Fatalf("get after MarkUp: %v", err)
	}

	// An unavailability window opened by the profile covers the
	// configured number of operations, then the family recovers.
	s2 := newTestStore(t)
	inj2 := faults.New(s2, 7)
	inj2.SetProfile("cf", faults.Profile{UnavailableRate: 1, UnavailableOps: 3})
	if _, err := inj2.Get("cf", backend.GetRequest{Partition: []backend.Value{int64(1)}}); err == nil {
		t.Fatal("window-opening op should fail")
	}
	inj2.SetProfile("cf", faults.Profile{}) // stop opening new windows
	down := 0
	for i := 0; i < 3; i++ {
		if _, err := get(inj2); err != nil {
			down++
		}
	}
	if down != 3 {
		t.Errorf("window covered %d of 3 ops", down)
	}
	if _, err := get(inj2); err != nil {
		t.Errorf("family did not recover after window: %v", err)
	}
}

func TestLatencyInflation(t *testing.T) {
	s := newTestStore(t)
	direct, err := s.Get("cf", backend.GetRequest{Partition: []backend.Value{int64(1)}})
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(s, 1)
	inj.SetProfile("cf", faults.Profile{LatencyFactor: 3})
	res, err := get(inj)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimMillis != 3*direct.SimMillis {
		t.Errorf("inflated sim %v, want %v", res.SimMillis, 3*direct.SimMillis)
	}
}

func TestCounts(t *testing.T) {
	s := newTestStore(t)
	inj := faults.New(s, 9)
	inj.SetDefaultProfile(faults.Rate(0.5))
	for i := 0; i < 100; i++ {
		get(inj)
	}
	c := inj.Counts()
	if c.Ops != 100 {
		t.Errorf("ops = %d, want 100", c.Ops)
	}
	if c.Transients+c.Timeouts+c.Unavailables == 0 {
		t.Error("no faults counted at 50% rate")
	}
}

// TestConcurrentInjection exercises the injector from many goroutines;
// run under -race this checks the locking of per-family state.
func TestConcurrentInjection(t *testing.T) {
	s := newTestStore(t)
	inj := faults.New(s, 3)
	inj.SetDefaultProfile(faults.Rate(0.2))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 3 {
				case 0:
					get(inj)
				case 1:
					inj.Put("cf", []backend.Value{int64(1)}, []backend.Value{int64(i)}, []backend.Value{int64(i)})
				default:
					inj.Delete("cf", []backend.Value{int64(1)}, []backend.Value{int64(i)})
				}
			}
		}(g)
	}
	wg.Wait()
	if c := inj.Counts(); c.Ops != 8*200 {
		t.Errorf("ops = %d, want %d", c.Ops, 8*200)
	}
}
