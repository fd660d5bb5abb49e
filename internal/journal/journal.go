// Package journal is the durable write-ahead log that makes live schema
// migrations crash-consistent. Every migrate.Live state transition,
// family creation, and backfill chunk watermark is appended as one
// checksummed, length-prefixed binary record with a strictly increasing
// sequence number; harness.Recover replays the log after a (simulated)
// process crash to decide whether the in-flight migration resumes from
// its watermark, rolls forward through cutover, or rolls back.
//
// Durability is simulated: Append models a synchronous fsync, so a
// crash injected at the append point (faults.SiteJournal) loses exactly
// the record being appended and nothing before it — the durable prefix
// is always a valid journal. Replay therefore tolerates a truncated
// final record (the crash artifact) but fails closed with *CorruptError
// on anything else: checksum mismatches, sequence gaps or duplicates,
// unknown record kinds, or oversized frames.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"

	"nose/internal/faults"
	"nose/internal/obs"
)

// Kind discriminates journal records.
type Kind uint8

const (
	// KindStart opens a migration: the phase name and the family names
	// being built and dropped. Everything after the latest Start belongs
	// to that migration.
	KindStart Kind = iota + 1
	// KindCreated records that one build family was created (empty) in
	// the store and is receiving dual writes.
	KindCreated
	// KindState records a migrate.State transition (the numeric state).
	KindState
	// KindChunk records the backfill watermark: every snapshot record
	// below Cursor is durably in the store.
	KindChunk
	// KindCutoverApplied records that the harness swapped its plan table
	// onto the new schema — the recovery point separating roll-back
	// from roll-forward.
	KindCutoverApplied
	// KindRecovered records a completed recovery and its outcome code;
	// replay treats it as a marker.
	KindRecovered

	kindMax = KindRecovered
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case KindStart:
		return "start"
	case KindCreated:
		return "created"
	case KindState:
		return "state"
	case KindChunk:
		return "chunk"
	case KindCutoverApplied:
		return "cutover-applied"
	case KindRecovered:
		return "recovered"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one journal entry. Which fields are meaningful depends on
// Kind; Seq is assigned by Append.
type Record struct {
	// Seq is the record's sequence number, strictly increasing from 0.
	Seq uint64
	// Kind discriminates the record.
	Kind Kind
	// Name is the phase name (KindStart) or family name (KindCreated).
	Name string
	// Build and Drop are the family names of a KindStart record.
	Build, Drop []string
	// State is the numeric migrate.State of a KindState record.
	State uint8
	// Cursor is the backfill watermark of a KindChunk record.
	Cursor uint64
	// Outcome is the recovery outcome code of a KindRecovered record.
	Outcome uint8
}

// CorruptError reports a journal byte stream that cannot have been
// produced by crash-truncating a valid journal: replay fails closed
// rather than recovering from it.
type CorruptError struct {
	// Offset is the byte offset of the bad frame.
	Offset int
	// Reason says what was wrong.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal: corrupt at byte %d: %s", e.Offset, e.Reason)
}

// maxFrameBytes bounds one record's payload; larger length prefixes are
// corruption, not records (and keep hostile inputs from ballooning).
const maxFrameBytes = 1 << 20

// syncMillis is the simulated time one synchronous journal append
// (write + fsync) charges.
const syncMillis = 0.05

// Options configures a journal.
type Options struct {
	// Crashes injects crashes at the append point; nil never crashes.
	Crashes *faults.Crashes
	// Obs, when set, counts appends and bytes into a registry.
	Obs *obs.Registry
}

// Journal is an append-only migration log with simulated fsync. All
// methods are safe for concurrent use.
type Journal struct {
	mu        sync.Mutex
	data      []byte
	nextSeq   uint64
	records   int
	simMillis float64
	crashes   *faults.Crashes

	appends, bytes *obs.Counter
}

// New returns an empty journal.
func New(opts Options) *Journal {
	j := &Journal{crashes: opts.Crashes}
	if opts.Obs != nil {
		j.appends = opts.Obs.Counter("journal.appends")
		j.bytes = opts.Obs.Counter("journal.bytes")
	}
	return j
}

// Open validates a durable byte stream (as read back after a crash) and
// returns a journal that continues appending after its last valid
// record, plus the records recovered. A truncated final record is
// discarded silently — that is the expected crash artifact; any other
// damage returns a *CorruptError and no journal.
func Open(data []byte, opts Options) (*Journal, []Record, error) {
	recs, valid, err := replay(data)
	if err != nil {
		return nil, nil, err
	}
	j := New(opts)
	j.data = append(j.data, data[:valid]...)
	j.records = len(recs)
	if n := len(recs); n > 0 {
		j.nextSeq = recs[n-1].Seq + 1
	}
	return j, recs, nil
}

// Append assigns the record its sequence number, encodes it, and makes
// it durable, returning the simulated sync time charged. When a crash
// is armed at this append, the record is lost — the durable prefix
// still ends at the previous record — and the crash error is returned.
func (j *Journal) Append(r Record) (float64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.crashes.Point(faults.SiteJournal); err != nil {
		return 0, err
	}
	r.Seq = j.nextSeq
	frame, err := encode(r)
	if err != nil {
		return 0, err
	}
	j.nextSeq++
	j.records++
	j.data = append(j.data, frame...)
	j.simMillis += syncMillis
	if j.appends != nil {
		j.appends.Inc()
		j.bytes.Add(int64(len(frame)))
	}
	return syncMillis, nil
}

// Durable returns a copy of the journal's durable byte stream — what a
// restarted process would read back.
func (j *Journal) Durable() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]byte(nil), j.data...)
}

// Records returns the number of durable records.
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// SimMillis returns the simulated time spent on durable appends.
// Production books each append's cost as Append returns it; the journal
// tests check the running total against that sum.
func (j *Journal) SimMillis() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.simMillis
}

// Replay decodes a journal byte stream into its records. A truncated
// final record is tolerated (the crash artifact); every other
// inconsistency — bad checksum, sequence gap or duplicate, unknown
// kind, oversized frame — returns a *CorruptError. Production reopens a
// journal with Open, which also resumes appending; Replay is the
// read-only form the recovery tests and FuzzJournalReplay drive.
func Replay(data []byte) ([]Record, error) {
	recs, _, err := replay(data)
	return recs, err
}

// replay also returns the byte length of the valid prefix.
func replay(data []byte) ([]Record, int, error) {
	var recs []Record
	off := 0
	wantSeq := uint64(0)
	for off < len(data) {
		if len(data)-off < 4 {
			break // truncated length prefix: crash artifact
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n <= 0 || n > maxFrameBytes {
			return nil, 0, &CorruptError{Offset: off, Reason: fmt.Sprintf("frame length %d out of range", n)}
		}
		if len(data)-off < 4+n+8 {
			break // truncated payload or checksum: crash artifact
		}
		payload := data[off+4 : off+4+n]
		sum := binary.LittleEndian.Uint64(data[off+4+n:])
		h := fnv.New64a()
		h.Write(payload)
		if h.Sum64() != sum {
			return nil, 0, &CorruptError{Offset: off, Reason: "checksum mismatch"}
		}
		rec, err := decode(payload, off)
		if err != nil {
			return nil, 0, err
		}
		if rec.Seq != wantSeq {
			return nil, 0, &CorruptError{Offset: off,
				Reason: fmt.Sprintf("sequence %d, want %d (duplicated or reordered record)", rec.Seq, wantSeq)}
		}
		wantSeq++
		recs = append(recs, rec)
		off += 4 + n + 8
	}
	return recs, off, nil
}

// encode builds one frame: u32 length, payload, u64 FNV-64a checksum.
func encode(r Record) ([]byte, error) {
	if r.Kind == 0 || r.Kind > kindMax {
		return nil, fmt.Errorf("journal: encode: unknown kind %d", r.Kind)
	}
	p := []byte{byte(r.Kind)}
	p = binary.AppendUvarint(p, r.Seq)
	switch r.Kind {
	case KindStart:
		p = appendString(p, r.Name)
		p = appendStrings(p, r.Build)
		p = appendStrings(p, r.Drop)
	case KindCreated:
		p = appendString(p, r.Name)
	case KindState:
		p = append(p, r.State)
	case KindChunk:
		p = binary.AppendUvarint(p, r.Cursor)
	case KindCutoverApplied:
		// no payload beyond the header
	case KindRecovered:
		p = append(p, r.Outcome)
	}
	if len(p) > maxFrameBytes {
		return nil, fmt.Errorf("journal: encode: record of %d bytes exceeds frame limit", len(p))
	}
	frame := make([]byte, 0, 4+len(p)+8)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(p)))
	frame = append(frame, p...)
	h := fnv.New64a()
	h.Write(p)
	frame = binary.LittleEndian.AppendUint64(frame, h.Sum64())
	return frame, nil
}

// decode parses one checksum-verified payload.
func decode(p []byte, off int) (Record, error) {
	bad := func(reason string) (Record, error) {
		return Record{}, &CorruptError{Offset: off, Reason: reason}
	}
	if len(p) == 0 {
		return bad("empty payload")
	}
	r := Record{Kind: Kind(p[0])}
	if r.Kind == 0 || r.Kind > kindMax {
		return bad(fmt.Sprintf("unknown record kind %d", p[0]))
	}
	p = p[1:]
	var n int
	r.Seq, n = binary.Uvarint(p)
	if n <= 0 {
		return bad("bad sequence varint")
	}
	p = p[n:]
	var err error
	switch r.Kind {
	case KindStart:
		if r.Name, p, err = readString(p); err != nil {
			return bad("start: " + err.Error())
		}
		if r.Build, p, err = readStrings(p); err != nil {
			return bad("start build list: " + err.Error())
		}
		if r.Drop, p, err = readStrings(p); err != nil {
			return bad("start drop list: " + err.Error())
		}
	case KindCreated:
		if r.Name, p, err = readString(p); err != nil {
			return bad("created: " + err.Error())
		}
	case KindState:
		if len(p) != 1 {
			return bad("state payload size")
		}
		if p[0] > 5 {
			return bad(fmt.Sprintf("state code %d out of range", p[0]))
		}
		r.State = p[0]
		p = nil
	case KindChunk:
		r.Cursor, n = binary.Uvarint(p)
		if n <= 0 {
			return bad("bad cursor varint")
		}
		p = p[n:]
	case KindCutoverApplied:
		// nothing
	case KindRecovered:
		if len(p) != 1 {
			return bad("recovered payload size")
		}
		r.Outcome = p[0]
		p = nil
	}
	if len(p) != 0 {
		return bad("trailing bytes in payload")
	}
	return r, nil
}

func appendString(p []byte, s string) []byte {
	p = binary.AppendUvarint(p, uint64(len(s)))
	return append(p, s...)
}

func appendStrings(p []byte, ss []string) []byte {
	p = binary.AppendUvarint(p, uint64(len(ss)))
	for _, s := range ss {
		p = appendString(p, s)
	}
	return p
}

func readString(p []byte) (string, []byte, error) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) {
		return "", nil, fmt.Errorf("bad string length")
	}
	return string(p[w : w+int(n)]), p[w+int(n):], nil
}

func readStrings(p []byte) ([]string, []byte, error) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) {
		return nil, nil, fmt.Errorf("bad list length")
	}
	p = p[w:]
	var out []string
	for i := uint64(0); i < n; i++ {
		var s string
		var err error
		if s, p, err = readString(p); err != nil {
			return nil, nil, err
		}
		out = append(out, s)
	}
	return out, p, nil
}
