package journal_test

import (
	"errors"
	"testing"

	"nose/internal/faults"
	"nose/internal/journal"
)

func sampleRecords() []journal.Record {
	return []journal.Record{
		{Kind: journal.KindStart, Name: "phase-1", Build: []string{"cf1_m1", "cf2_m1"}, Drop: []string{"cf0"}},
		{Kind: journal.KindCreated, Name: "cf1_m1"},
		{Kind: journal.KindCreated, Name: "cf2_m1"},
		{Kind: journal.KindState, State: 1},
		{Kind: journal.KindChunk, Cursor: 64},
		{Kind: journal.KindChunk, Cursor: 128},
		{Kind: journal.KindState, State: 2},
		{Kind: journal.KindCutoverApplied},
		{Kind: journal.KindState, State: 4},
		{Kind: journal.KindRecovered, Outcome: 3},
	}
}

// TestRoundTrip: append → Durable → Replay reproduces every field and
// assigns strictly increasing sequence numbers.
func TestRoundTrip(t *testing.T) {
	j := journal.New(journal.Options{})
	want := sampleRecords()
	for _, r := range want {
		ms, err := j.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		if ms <= 0 {
			t.Fatalf("append charged %g ms", ms)
		}
	}
	if j.Records() != len(want) {
		t.Fatalf("Records = %d, want %d", j.Records(), len(want))
	}
	got, err := journal.Replay(j.Durable())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Seq != uint64(i) {
			t.Errorf("record %d: seq %d", i, r.Seq)
		}
		w := want[i]
		if r.Kind != w.Kind || r.Name != w.Name || r.State != w.State || r.Cursor != w.Cursor || r.Outcome != w.Outcome {
			t.Errorf("record %d = %+v, want %+v", i, r, w)
		}
		if len(r.Build) != len(w.Build) || len(r.Drop) != len(w.Drop) {
			t.Errorf("record %d lists = %+v, want %+v", i, r, w)
		}
	}
}

// TestTruncatedTailTolerated: cutting a journal anywhere inside its
// final frame replays the intact prefix without error — that is the
// crash artifact recovery must accept.
func TestTruncatedTailTolerated(t *testing.T) {
	j := journal.New(journal.Options{})
	for _, r := range sampleRecords() {
		if _, err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	data := j.Durable()
	full, err := journal.Replay(data)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(data) - 1; cut > len(data)-12; cut-- {
		got, err := journal.Replay(data[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) != len(full)-1 {
			t.Fatalf("cut %d: %d records, want %d", cut, len(got), len(full)-1)
		}
	}
}

// TestCorruptionFailsClosed: flipped payload bytes, duplicated frames,
// and oversized length prefixes all return *CorruptError.
func TestCorruptionFailsClosed(t *testing.T) {
	j := journal.New(journal.Options{})
	for _, r := range sampleRecords() {
		if _, err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	data := j.Durable()

	var ce *journal.CorruptError
	// Flip one payload byte of the first frame (offset 4 is the kind).
	flipped := append([]byte(nil), data...)
	flipped[5] ^= 0xff
	if _, err := journal.Replay(flipped); !errors.As(err, &ce) {
		t.Fatalf("flipped byte: got %v, want CorruptError", err)
	}
	// Duplicate the first frame: checksum passes, sequence does not.
	n := 4 + int(uint32(data[0])|uint32(data[1])<<8|uint32(data[2])<<16|uint32(data[3])<<24) + 8
	dup := append(append([]byte(nil), data[:n]...), data...)
	if _, err := journal.Replay(dup); !errors.As(err, &ce) {
		t.Fatalf("duplicated frame: got %v, want CorruptError", err)
	}
	// An absurd length prefix is corruption, not truncation.
	huge := append([]byte(nil), data...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	if _, err := journal.Replay(huge); !errors.As(err, &ce) {
		t.Fatalf("oversized frame: got %v, want CorruptError", err)
	}
}

// TestOpenContinues: reopening a journal (possibly crash-truncated)
// continues the sequence so the combined stream stays replayable.
func TestOpenContinues(t *testing.T) {
	j := journal.New(journal.Options{})
	recs := sampleRecords()
	for _, r := range recs[:4] {
		if _, err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	data := j.Durable()
	// Simulate a crash that truncated the tail mid-frame.
	j2, got, err := journal.Open(data[:len(data)-3], journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("recovered %d records, want 3", len(got))
	}
	for _, r := range recs[4:] {
		if _, err := j2.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	all, err := journal.Replay(j2.Durable())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3+len(recs[4:]) {
		t.Fatalf("combined stream has %d records, want %d", len(all), 3+len(recs[4:]))
	}
	// Garbage does not open.
	if _, _, err := journal.Open([]byte("\x02\x00\x00\x00xx12345678"), journal.Options{}); err == nil {
		t.Fatal("Open accepted garbage")
	}
}

// TestCrashAtAppend: an armed crash loses exactly the appended record,
// the durable prefix stays valid, and the journal is dead afterwards.
func TestCrashAtAppend(t *testing.T) {
	cr := faults.NewCrashes()
	cr.Arm(faults.SiteJournal, 2)
	j := journal.New(journal.Options{Crashes: cr})
	recs := sampleRecords()
	var crashErr error
	appended := 0
	for _, r := range recs {
		if _, err := j.Append(r); err != nil {
			crashErr = err
			break
		}
		appended++
	}
	if appended != 2 || !faults.IsCrash(crashErr) {
		t.Fatalf("appended %d before crash (err %v), want 2", appended, crashErr)
	}
	if cr.Fired() == nil || cr.Fired().Index != 2 {
		t.Fatalf("Fired = %+v", cr.Fired())
	}
	// Dead stays dead.
	if _, err := j.Append(recs[0]); !faults.IsCrash(err) {
		t.Fatalf("append after crash: %v", err)
	}
	got, err := journal.Replay(j.Durable())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("durable prefix has %d records, want 2", len(got))
	}
}
