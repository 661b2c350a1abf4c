package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"clinfl/internal/metrics"
	"clinfl/internal/tensor"
)

// File framing: a magic header, then records as
//
//	u32 little-endian body length (capped at maxRecordSize)
//	u32 CRC-32C of the body
//	body (see encodeRecord)
//
// The magic names the format version. v2 added RecUpdatePayload; every
// other record kind is unchanged from v1, so a v1 log replays as is. A
// binary that predates v2 would mistake the first payload record for a
// torn tail and truncate it away, so it must instead be stopped at the
// magic: new logs are created v2, and a v1 log is stamped v2 when it is
// opened, before anything can be appended to it.
//
// Durability is group-committed: appends write immediately and a
// background syncer batches the fsyncs, so the round's record burst
// flushes while the next round's clients train instead of stalling the
// server once per record. What survives a crash is always a *prefix* of
// the append order — an fsync that covers a round's open record covers
// every earlier record too — and the round protocol is arranged so any
// durable prefix resumes correctly: replay can never pair a round with
// stale weights, and a lost suffix only re-runs work whose recomputation
// is byte-identical. Session grants are the one record an external
// promise rides on (the token handed to the client must outlive the
// process), so those sync before returning. A torn tail — the crash
// landed mid-write or mid-sync — fails the length or CRC check on reopen
// and is truncated away; every record before it replays exactly.

// walMagic opens every WAL file this binary writes; walMagicV1 (same
// length) opens logs written before RecUpdatePayload existed.
const (
	walMagic   = "CFWAL2\n"
	walMagicV1 = "CFWAL1\n"
)

// frameHeaderLen is the length+CRC prefix of every record.
const frameHeaderLen = 8

// castagnoli is the CRC-32C table (same polynomial as iSCSI/ext4 —
// hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a WAL.
type Options struct {
	// NoSync skips every fsync. Only for tests and benchmarks that
	// measure the encoding path; production records must reach disk
	// before the actions they back become externally visible.
	NoSync bool
	// Metrics, when non-nil, receives wal_appends_total /
	// wal_bytes_written_total / wal_fsyncs_total /
	// wal_replayed_records_total counters.
	Metrics *metrics.Registry
	// OnAppend, when non-nil, observes every append with the cumulative
	// append count, synchronously on the appending goroutine, after the
	// record is written to the file. The record is not necessarily
	// durable yet — it becomes so at the next Sync, durable append, or
	// Close. The crash-restart soak harness uses the hook to kill the
	// run at an exact, reproducible point in the record stream. The
	// record's slices are the caller's and valid only during the call: an
	// update's payload may alias a wire frame the Server recycles.
	OnAppend func(total int64, rec *Record)
}

// Update is one client update recovered from the WAL. Exactly one of
// Weights (a RecUpdate record, decoded) and Payload (a RecUpdatePayload
// record: the client's uplink as it crossed the wire, still encoded) is
// set.
type Update struct {
	Client       string
	NumSamples   int
	TrainLoss    float64
	PayloadBytes int
	Weights      map[string]*tensor.Matrix
	Payload      []byte
}

// OpenRound is a round that was opened but never committed: the crash
// happened mid-gather. Tasked is the recorded task-assignment set
// (sorted, deduplicated); Updates are the updates that reached the WAL,
// in arrival order, at most one per client.
type OpenRound struct {
	Round   int
	Tasked  []string
	Updates []*Update
}

// State is the replayed view of a WAL: everything a restarted server
// needs to resume.
type State struct {
	// LastRound is the last committed round (-1 when none committed).
	LastRound int
	// Weights is the last committed global model (nil when none).
	Weights map[string]*tensor.Matrix
	// Sessions maps client name to issued session token.
	Sessions map[string]string
	// Health maps client name to its last recorded reconciliation state
	// ("quarantined" or, after a rejoin, "healthy"); last-wins on
	// replay. A restart seeds its health ladder from this so a
	// quarantined client stays out of the sample pool across the crash.
	Health map[string]string
	// Open is the in-flight round, if the crash happened mid-round.
	Open *OpenRound
	// Records counts replayed records.
	Records int64
	// Torn reports that a corrupt/torn tail was truncated on open.
	Torn bool
}

// span locates one record body in the log file.
type span struct {
	off int64
	n   int
}

// replay is one pass over a log. The scan checks every record's framing,
// CRC and structure and folds its scalar fields into st, but leaves
// weights and payloads on disk: a log of N rounds holds N model commits
// and every update of every round, and a restart needs only the last
// commit and the open round's updates. The scan remembers where those
// are; materialize reads back just them.
type replay struct {
	st     *State
	good   int64 // end of the last intact record
	legacy bool  // the log carries the v1 magic
	commit span  // the st.LastRound model commit (n == 0: none)
	// updates locates st.Open.Updates[i]'s record; updated is that
	// round's client set, so each duplicate check is one lookup however
	// many clients the round has.
	updates []span
	updated map[string]struct{}
}

func newReplay() *replay {
	return &replay{st: &State{LastRound: -1, Sessions: make(map[string]string), Health: make(map[string]string)}}
}

// apply folds one scanned record, found at at, into the state.
func (r *replay) apply(rec *Record, at span) {
	s := r.st
	switch rec.Type {
	case RecSession:
		s.Sessions[rec.Client] = rec.Token
	case RecRoundOpen:
		if rec.Round <= s.LastRound {
			return // stale: already committed
		}
		if s.Open == nil || s.Open.Round != rec.Round {
			s.Open = &OpenRound{Round: rec.Round}
			r.updates, r.updated = r.updates[:0], make(map[string]struct{})
		}
	case RecTaskAssigned:
		if s.Open == nil || s.Open.Round != rec.Round {
			return
		}
		if i, dup := slices.BinarySearch(s.Open.Tasked, rec.Client); !dup {
			s.Open.Tasked = slices.Insert(s.Open.Tasked, i, rec.Client)
		}
	case RecUpdate, RecUpdatePayload:
		if s.Open == nil || s.Open.Round != rec.Round {
			return
		}
		if _, dup := r.updated[rec.Client]; dup {
			return // the first durable copy wins
		}
		r.updated[rec.Client] = struct{}{}
		s.Open.Updates = append(s.Open.Updates, &Update{
			Client:       rec.Client,
			NumSamples:   rec.NumSamples,
			TrainLoss:    rec.TrainLoss,
			PayloadBytes: rec.PayloadBytes,
		})
		r.updates = append(r.updates, at)
	case RecRoundFinal:
		// Informational; RecModelCommit is the durable commit point. A
		// crash between the two leaves the round open, and the resumed
		// round re-finalizes from the recorded updates — byte-identical,
		// since aggregation order is canonicalized.
	case RecModelCommit:
		if rec.Round > s.LastRound {
			s.LastRound = rec.Round
			r.commit = at
		}
		if s.Open != nil && s.Open.Round <= rec.Round {
			s.Open = nil
			r.updates, r.updated = r.updates[:0], nil
		}
	case RecHealth:
		s.Health[rec.Client] = rec.Token
	}
}

// materialize decodes what the scan deferred: the last committed model,
// and the weights or payload of each update of the open round.
func (r *replay) materialize(f *os.File) error {
	if r.commit.n > 0 {
		rec, err := readRecord(f, r.commit)
		if err != nil {
			return err
		}
		r.st.Weights = rec.Weights
	}
	for i, at := range r.updates {
		rec, err := readRecord(f, at)
		if err != nil {
			return err
		}
		u := r.st.Open.Updates[i]
		u.Weights, u.Payload = rec.Weights, rec.Payload
	}
	return nil
}

// readRecord reads back and fully decodes a record the scan already
// verified. The body gets a buffer of its own: a decoded payload aliases
// it.
func readRecord(f *os.File, at span) (*Record, error) {
	body := make([]byte, at.n)
	if _, err := f.ReadAt(body, at.off); err != nil {
		return nil, fmt.Errorf("durable: re-read record at offset %d: %w", at.off, err)
	}
	rec, err := decodeRecord(body)
	if err != nil {
		return nil, fmt.Errorf("durable: record at offset %d: %w", at.off, err)
	}
	return rec, nil
}

// WAL is an open write-ahead log positioned for appends. Appends are
// safe from multiple goroutines (the server writes sessions from reader
// goroutines and round records from the run loop); Recovered state is a
// snapshot taken at Open.
type WAL struct {
	opts Options
	st   *State

	// mu guards file writes and the append/synced counters; it is never
	// held across an fsync, so group syncs overlap with fresh appends.
	mu      sync.Mutex
	f       *os.File
	scratch []byte // reused frame buffer (header + body): one allocation per log, not per append
	appends int64  // records written through this handle
	fsyncs  int64
	synced  int64 // records covered by a completed fsync
	syncErr error // sticky: first write/fsync failure poisons the log

	// syncMu serializes fsyncs between barrier callers and the syncer.
	syncMu    sync.Mutex
	wake      chan struct{} // nudges the background syncer, capacity 1
	quit      chan struct{}
	syncerEnd chan struct{}
	closeOnce sync.Once

	cAppends *metrics.Counter
	cBytes   *metrics.Counter
	cFsyncs  *metrics.Counter
}

// Open opens (or creates) the WAL at path, replays every intact record
// into a State snapshot, truncates any torn tail, and positions the file
// for appends.
func Open(path string, opts Options) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", path, err)
	}
	w := &WAL{
		f:         f,
		opts:      opts,
		scratch:   make([]byte, frameHeaderLen),
		wake:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
		syncerEnd: make(chan struct{}),
		cAppends:  opts.Metrics.Counter("wal_appends_total", "WAL records appended"),
		cBytes:    opts.Metrics.Counter("wal_bytes_written_total", "WAL bytes appended (record frames)"),
		cFsyncs:   opts.Metrics.Counter("wal_fsyncs_total", "WAL fsync calls"),
	}
	if w.st, err = w.replayLog(); err != nil {
		_ = f.Close()
		return nil, err
	}
	opts.Metrics.Counter("wal_replayed_records_total", "WAL records replayed at open").Add(w.st.Records)
	go w.syncer()
	return w, nil
}

// replayLog replays the file into a State and leaves it a v2 log
// positioned for appends: torn tail truncated, magic written or upgraded.
func (w *WAL) replayLog() (*State, error) {
	f := w.f
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("durable: stat: %w", err)
	}
	r, err := scanFile(f, info.Size())
	if err != nil {
		return nil, err
	}
	dirty := false
	if r.good < info.Size() {
		// Torn or corrupt tail: truncate back to the last intact record.
		r.st.Torn = true
		if err := f.Truncate(r.good); err != nil {
			return nil, fmt.Errorf("durable: truncate torn tail: %w", err)
		}
		dirty = true
	}
	if _, err := f.Seek(r.good, io.SeekStart); err != nil {
		return nil, fmt.Errorf("durable: reposition: %w", err)
	}
	switch {
	case r.good == 0:
		// Fresh log (or one torn inside its header): write the magic.
		if _, err := f.Write([]byte(walMagic)); err != nil {
			return nil, fmt.Errorf("durable: write header: %w", err)
		}
		dirty = true
	case r.legacy:
		// Every append from here on may be a payload record. Stamp the log
		// v2 first — and make the stamp durable below — so an older binary
		// refuses it at the magic instead of truncating those records.
		if _, err := f.WriteAt([]byte(walMagic), 0); err != nil {
			return nil, fmt.Errorf("durable: upgrade header: %w", err)
		}
		dirty = true
	}
	if dirty {
		if err := w.fsync(); err != nil {
			return nil, err
		}
	}
	if err := r.materialize(f); err != nil {
		return nil, err
	}
	return r.st, nil
}

// scanFile reads size bytes of log from the start of f, folding records
// into a replay until the first one that is not intact. Any failure —
// short header, implausible length, CRC mismatch, body decode error — ends
// the scan at the previous good offset; it is reported as a torn tail,
// never an open error, because a crash mid-append is exactly the failure
// the WAL exists to absorb.
func scanFile(f *os.File, size int64) (*replay, error) {
	r := newReplay()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("durable: seek: %w", err)
	}
	hdr := make([]byte, len(walMagic))
	if _, err := io.ReadFull(f, hdr); err != nil {
		return r, nil // empty or shorter than the magic: fresh/torn
	}
	switch string(hdr) {
	case walMagic:
	case walMagicV1:
		r.legacy = true
	default:
		return nil, fmt.Errorf("durable: bad WAL magic %q", hdr)
	}
	r.good = int64(len(hdr))
	var frame [frameHeaderLen]byte
	var buf []byte // reused across records; grows to the largest body
	for {
		if _, err := io.ReadFull(f, frame[:]); err != nil {
			return r, nil
		}
		length := int64(binary.LittleEndian.Uint32(frame[0:4]))
		sum := binary.LittleEndian.Uint32(frame[4:8])
		// A frame claiming more than the cap — or more than the file still
		// holds — is a torn tail, recognized before a buffer is sized from
		// the claim.
		if length > maxRecordSize || length > size-r.good-frameHeaderLen {
			return r, nil
		}
		if int64(cap(buf)) < length {
			buf = make([]byte, length)
		}
		body := buf[:length]
		if _, err := io.ReadFull(f, body); err != nil {
			return r, nil
		}
		if crc32.Checksum(body, castagnoli) != sum {
			return r, nil
		}
		rec, err := scanRecord(body)
		if err != nil {
			return r, nil
		}
		r.apply(rec, span{off: r.good + frameHeaderLen, n: len(body)})
		r.st.Records++
		r.good += frameHeaderLen + length
	}
}

// Recovered returns the state replayed at Open (never nil).
func (w *WAL) Recovered() *State { return w.st }

// append encodes rec, frames it with length+CRC, and writes it, firing
// the OnAppend hook on the caller. It returns the record's position in
// the append sequence; the record is written but not yet durable.
func (w *WAL) append(rec *Record) (int64, error) {
	w.mu.Lock()
	if err := w.syncErr; err != nil {
		w.mu.Unlock()
		return 0, err
	}
	// Encode into the reused scratch buffer (mu serializes its use): a
	// round writes tens of MB of records, and allocating each fresh would
	// hand the GC that much garbage per round. The buffer's first bytes
	// are reserved for the frame header, filled in once the body exists,
	// so header and body leave as one write(2) with no copy to join them.
	frame, err := encodeRecordInto(w.scratch[:frameHeaderLen], rec)
	if err != nil {
		w.mu.Unlock()
		return 0, err
	}
	w.scratch = frame
	body := frame[frameHeaderLen:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(body, castagnoli))
	if _, err := w.f.Write(frame); err != nil {
		err = fmt.Errorf("durable: append %s: %w", rec.Type, err)
		w.syncErr = err
		w.mu.Unlock()
		return 0, err
	}
	w.appends++
	n := w.appends
	w.mu.Unlock()
	w.cAppends.Inc()
	w.cBytes.Add(int64(len(body)) + frameHeaderLen)
	if w.opts.OnAppend != nil {
		w.opts.OnAppend(n, rec)
	}
	return n, nil
}

// Append writes rec and blocks until it is durable. When Append returns
// nil the record (and, by file order, every record appended before it)
// survives power loss. The round-lifecycle appenders below are mostly
// lazy instead; use Append directly when the caller is about to act on
// the record externally.
func (w *WAL) Append(rec *Record) error {
	n, err := w.append(rec)
	if err != nil {
		return err
	}
	return w.syncTo(n)
}

// appendLazy writes rec and returns without waiting for durability; the
// background syncer group-commits it, or the next Sync/durable
// append/Close does. A write error is returned here; a later fsync
// failure is sticky and surfaces on the next append, Sync, or Close.
func (w *WAL) appendLazy(rec *Record) error {
	if _, err := w.append(rec); err != nil {
		return err
	}
	select {
	case w.wake <- struct{}{}:
	default: // syncer already has a pending nudge
	}
	return nil
}

// Sync blocks until every record appended before the call is durable —
// the explicit group-commit barrier. Close uses it to settle the tail;
// the round hot path deliberately does not (see the package durability
// comment above).
func (w *WAL) Sync() error {
	w.mu.Lock()
	target, err := w.appends, w.syncErr
	w.mu.Unlock()
	if err != nil {
		return err
	}
	return w.syncTo(target)
}

// syncTo blocks until the first target appended records are durable.
// Syncs are serialized by syncMu, but mu is released across the fsync so
// appends keep flowing while a group commit is in flight.
func (w *WAL) syncTo(target int64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	if err := w.syncErr; err != nil {
		w.mu.Unlock()
		return err
	}
	if w.synced >= target {
		w.mu.Unlock()
		return nil
	}
	// Every write that completed before this point is in the file and
	// will be covered by the fsync; later racing writes wait their turn.
	covered := w.appends
	w.mu.Unlock()
	if !w.opts.NoSync {
		if err := w.f.Sync(); err != nil {
			err = fmt.Errorf("durable: fsync: %w", err)
			w.mu.Lock()
			if w.syncErr == nil {
				w.syncErr = err
			}
			w.mu.Unlock()
			return err
		}
	}
	w.mu.Lock()
	if !w.opts.NoSync {
		w.fsyncs++
	}
	if covered > w.synced {
		w.synced = covered
	}
	w.mu.Unlock()
	if !w.opts.NoSync {
		w.cFsyncs.Inc()
	}
	return nil
}

// coalesceDelay is how long the syncer waits for the append stream to go
// quiet before group-committing. A round's records arrive as a burst
// (task scatter, then the update gather); fsyncing eagerly inside the
// burst makes every multi-MB write stall behind the in-flight flush of
// the previous record, so instead the whole burst settles in one fsync
// once the writer pauses — off-thread, under the next round's training.
const coalesceDelay = 5 * time.Millisecond

// syncer is the background group-commit loop: a nudge from a lazy append
// arms it, it waits out the burst, then flushes everything written so
// far in one fsync. Errors are sticky in syncTo and surface on the next
// append, Sync, or Close.
func (w *WAL) syncer() {
	defer close(w.syncerEnd)
	for {
		select {
		case <-w.quit:
			return
		case <-w.wake:
		}
		last := w.Appends()
		for {
			select {
			case <-w.quit:
				return // Close settles the tail
			case <-time.After(coalesceDelay):
			}
			cur := w.Appends()
			if cur == last {
				break
			}
			last = cur
		}
		_ = w.Sync()
	}
}

// fsync flushes the file unless Options.NoSync (used by Open, outside
// the record-counting group-commit machinery).
func (w *WAL) fsync() error {
	if w.opts.NoSync {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	w.mu.Lock()
	w.fsyncs++
	w.mu.Unlock()
	w.cFsyncs.Inc()
	return nil
}

// Appends returns the records appended through this handle.
func (w *WAL) Appends() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends
}

// Fsyncs returns the fsync calls made through this handle.
func (w *WAL) Fsyncs() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fsyncs
}

// Close stops the syncer, flushes any records still awaiting their
// group commit, and closes the file. Safe to call more than once.
func (w *WAL) Close() error {
	w.closeOnce.Do(func() {
		close(w.quit)
		<-w.syncerEnd
	})
	err := w.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Convenience appenders for the round lifecycle. Their durability
// follows the protocol's commitment points: session grants are durable
// before the ack (the token outlives the process); every round record is
// lazy, group-committed by the background syncer and settled by Close —
// a suffix lost from an unsynced tail just re-runs its rounds to the
// byte-identical result.

// AppendSession records a client registration, durably: the token is
// about to be handed to the client, and a restart must recognize it.
func (w *WAL) AppendSession(client, token string) error {
	return w.Append(&Record{Type: RecSession, Client: client, Token: token})
}

// AppendRoundOpen marks the start of a round (lazy).
func (w *WAL) AppendRoundOpen(round int) error {
	return w.appendLazy(&Record{Type: RecRoundOpen, Round: round})
}

// AppendTaskAssigned records one client receiving the round's task
// (lazy).
func (w *WAL) AppendTaskAssigned(round int, client string) error {
	return w.appendLazy(&Record{Type: RecTaskAssigned, Round: round, Client: client})
}

// AppendUpdate records one client update as decoded f64 weights, the
// older RecUpdate kind (lazy, like AppendUpdatePayload). No engine path
// appends it any more; it writes the kind older logs hold, and the
// benchmark times it as its standalone append.
func (w *WAL) AppendUpdate(round int, client string, numSamples int, trainLoss float64, payloadBytes int, weights map[string]*tensor.Matrix) error {
	return w.appendLazy(&Record{
		Type: RecUpdate, Round: round, Client: client,
		NumSamples: numSamples, TrainLoss: trainLoss,
		PayloadBytes: payloadBytes, Weights: weights,
	})
}

// AppendUpdatePayload records one client update as the uplink payload the
// server received, verbatim, or an in-process update raw-encoded (lazy;
// an update lost with an unsynced tail re-tasks the client on resume,
// whose recomputation is byte-identical). payload is not retained past
// the call.
func (w *WAL) AppendUpdatePayload(round int, client string, numSamples int, trainLoss float64, payload []byte) error {
	return w.appendLazy(&Record{
		Type: RecUpdatePayload, Round: round, Client: client,
		NumSamples: numSamples, TrainLoss: trainLoss,
		PayloadBytes: len(payload), Payload: payload,
	})
}

// AppendRoundFinal records a round's aggregation (lazy; informational).
func (w *WAL) AppendRoundFinal(round int, participants []string) error {
	return w.appendLazy(&Record{Type: RecRoundFinal, Round: round, Participants: participants})
}

// AppendModelCommit commits a round's global model. Lazy: by file order
// the commit is never durable before the updates it aggregates nor after
// the next round's open, so replay always resumes a round against the
// model it actually started from.
func (w *WAL) AppendModelCommit(round int, weights map[string]*tensor.Matrix) error {
	return w.appendLazy(&Record{Type: RecModelCommit, Round: round, Weights: weights})
}

// AppendHealth records a reconciliation pool-membership decision for a
// client — quarantine entry or the rejoin clearing it — durably: the
// decision takes effect in the sample pool immediately, so it must
// survive a crash (a restart that forgot a quarantine would resurrect a
// misbehaving client into the pool).
func (w *WAL) AppendHealth(round int, client, state string) error {
	return w.Append(&Record{Type: RecHealth, Round: round, Client: client, Token: state})
}
