package service

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/service/api"
)

// The durable job journal is an append-only write-ahead log under the
// daemon's -data-dir: one JSON record per line, fsynced per append.
// Every job transition is journaled — submit (with the full
// content-addressed payload, so the job can be re-run from the log
// alone), running (with the attempt number), and the terminal states
// (done carries the marshaled result so finished jobs answer GETs and
// re-warm the result cache after a restart, each guarded by a
// checksum over its id, key and result bytes and stamped with the
// ResultEpoch that computed it; only this epoch's results re-warm the
// cache).
//
// Recovery reads the log on boot, tolerating a torn final line (the
// signature of dying mid-append), folds the records per job, and
// rewrites a compacted snapshot before serving: terminal jobs shrink
// to a single record without the netlist payload, live jobs keep
// their submit record and are re-enqueued.
const (
	journalFileName = "journal.wal"
	journalVersion  = 1

	recSubmit      = "submit"
	recRunning     = "running"
	recDone        = "done"
	recFailed      = "failed"
	recQuarantined = "quarantined"
)

// journalRecord is one WAL line. Which fields are populated depends on
// Type; unknown types are skipped on replay for forward compatibility.
type journalRecord struct {
	V    int    `json:"v"`
	Type string `json:"type"`
	ID   string `json:"id"`
	Key  string `json:"key,omitempty"`
	// Attempt is the execution count as of a running record (1 for the
	// first run). Terminal records carry the final count.
	Attempt int `json:"attempt,omitempty"`
	// Netlist and Spec reproduce the submission (submit records only).
	Netlist string         `json:"netlist,omitempty"`
	Spec    *bench.RunSpec `json:"spec,omitempty"`
	// Result is the marshaled api.Result (done records only).
	Result json.RawMessage `json:"result,omitempty"`
	// Checksum is doneChecksum of a done record's ID, Key and Result.
	// Replay serves and caches a done record only when it matches.
	Checksum string `json:"checksum,omitempty"`
	// Epoch is the ResultEpoch of the build that computed a done
	// record's result; records written before done records carried
	// one read 0. Replay caches a done result only at this build's
	// epoch: no key this build derives reaches another epoch's result,
	// so it would only occupy the cache. The job still answers its id.
	Epoch int `json:"epoch,omitempty"`
	// Degraded marks a done record whose result was produced in a
	// degraded mode; replay keeps it answerable but out of the result
	// cache (degraded output is timing-dependent, a later full-fidelity
	// run should not be masked by it).
	Degraded bool `json:"degraded,omitempty"`
	// Error is the failure or quarantine message.
	Error string `json:"error,omitempty"`
	// Worker names the cluster worker an attempt was placed on
	// (running/done records written by a coordinator; empty for
	// in-process execution).
	Worker string `json:"worker,omitempty"`
}

// journal is the append handle. Appends serialize under mu; each
// record is flushed and fsynced before append returns, so a record the
// caller saw succeed survives kill -9.
type journal struct {
	mu    sync.Mutex
	f     *os.File // guarded by mu
	path  string
	fault *fault.Injector
}

// openJournal opens (creating if needed) the journal under dir and
// returns the replayed records of a previous life.
func openJournal(dir string, flt *fault.Injector) (*journal, []journalRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, journalFileName)
	recs, err := readJournal(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return &journal{f: f, path: path, fault: flt}, recs, nil
}

// readJournal loads every intact record. A missing file is an empty
// journal. A torn or corrupt line ends the replay at the last good
// record (the tail beyond it is dropped by the compaction rewrite)
// rather than failing the boot: the fsync-per-append discipline means
// only the final line can be torn.
func readJournal(path string) ([]journalRecord, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	var recs []journalRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break // torn tail: keep what replayed cleanly
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil && len(recs) == 0 {
		return nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	return recs, nil
}

// append durably writes one record. The error path is live under fault
// injection ("journal.append") and real disk failures; the caller
// decides whether the operation the record describes may proceed.
func (jl *journal) append(rec journalRecord) error {
	if jl == nil {
		return nil
	}
	rec.V = journalVersion
	if err := jl.fault.Inject("journal.append"); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: marshal: %w", err)
	}
	b = append(b, '\n')
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if _, err := jl.f.Write(b); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := jl.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// rewrite atomically replaces the journal with the given records
// (write temp, fsync, rename) — the boot-time compaction. The append
// handle switches to the new file.
func (jl *journal) rewrite(recs []journalRecord) error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	tmp := jl.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rewrite: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, rec := range recs {
		rec.V = journalVersion
		b, err := json.Marshal(rec)
		if err != nil {
			f.Close()
			return fmt.Errorf("journal: rewrite marshal: %w", err)
		}
		w.Write(b)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("journal: rewrite flush: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: rewrite sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: rewrite close: %w", err)
	}
	if err := os.Rename(tmp, jl.path); err != nil {
		return fmt.Errorf("journal: rewrite rename: %w", err)
	}
	old := jl.f
	nf, err := os.OpenFile(jl.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopen: %w", err)
	}
	jl.f = nf
	old.Close()
	return nil
}

// Close releases the append handle.
func (jl *journal) Close() error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.f.Close()
}

// Checksum is the hex SHA-256 of the concatenated parts. It guards
// result bytes wherever they rest or travel outside the process: a
// cluster upload's checksum covers the bytes alone, a journal done
// record's its id, key and bytes (doneChecksum).
func Checksum(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// doneChecksum is the checksum of a done record. Neither a job id nor
// a content address holds a newline, so the framing is unambiguous.
func doneChecksum(id, key string, result []byte) string {
	return Checksum([]byte(id+"\n"+key+"\n"), result)
}

// badDoneRecord is the verdict of a journaled done job whose record
// fails its checksum: damaged on disk, or written before done records
// carried one. Such a job is never served or cached, and a
// resubmission routes afresh.
const badDoneRecord = "interrupted: journaled result does not match its checksum"

// replayedJob is the folded per-job state of a journal replay.
type replayedJob struct {
	id       string
	key      string
	attempt  int
	netlist  string
	spec     bench.RunSpec
	hasSpec  bool
	status   api.JobStatus // terminal status, or "" while live
	result   json.RawMessage
	checksum string
	epoch    int
	degraded bool
	errMsg   string
	worker   string // last recorded placement
}

// foldJournal reduces a record stream to per-job state, in first-seen
// job order.
func foldJournal(recs []journalRecord) []*replayedJob {
	byID := make(map[string]*replayedJob)
	var order []*replayedJob
	get := func(rec journalRecord) *replayedJob {
		rj, ok := byID[rec.ID]
		if !ok {
			rj = &replayedJob{id: rec.ID}
			byID[rec.ID] = rj
			order = append(order, rj)
		}
		if rec.Key != "" {
			rj.key = rec.Key
		}
		if rec.Attempt > rj.attempt {
			rj.attempt = rec.Attempt
		}
		if rec.Worker != "" {
			rj.worker = rec.Worker
		}
		return rj
	}
	for _, rec := range recs {
		if rec.ID == "" {
			continue
		}
		switch rec.Type {
		case recSubmit:
			rj := get(rec)
			rj.netlist = rec.Netlist
			if rec.Spec != nil {
				rj.spec = *rec.Spec
				rj.hasSpec = true
			}
		case recRunning:
			get(rec)
		case recDone:
			rj := get(rec)
			rj.status = api.StatusDone
			rj.result = rec.Result
			rj.checksum = rec.Checksum
			rj.epoch = rec.Epoch
			rj.degraded = rec.Degraded
		case recFailed:
			rj := get(rec)
			rj.status = api.StatusFailed
			rj.errMsg = rec.Error
		case recQuarantined:
			rj := get(rec)
			rj.status = api.StatusQuarantined
			rj.errMsg = rec.Error
		}
	}
	return order
}

// compactRecords renders the minimal record set equivalent to the
// folded state: terminal jobs keep one payload-free record, live jobs
// keep their full submit plus the attempt high-water mark.
func compactRecords(jobs []*replayedJob) []journalRecord {
	var out []journalRecord
	for _, rj := range jobs {
		switch rj.status {
		case api.StatusDone:
			out = append(out, journalRecord{Type: recDone, ID: rj.id, Key: rj.key, Attempt: rj.attempt, Result: rj.result, Checksum: rj.checksum, Epoch: rj.epoch, Degraded: rj.degraded})
		case api.StatusFailed:
			out = append(out, journalRecord{Type: recFailed, ID: rj.id, Key: rj.key, Attempt: rj.attempt, Error: rj.errMsg})
		case api.StatusQuarantined:
			out = append(out, journalRecord{Type: recQuarantined, ID: rj.id, Key: rj.key, Attempt: rj.attempt, Error: rj.errMsg})
		default:
			spec := rj.spec
			out = append(out, journalRecord{Type: recSubmit, ID: rj.id, Key: rj.key, Netlist: rj.netlist, Spec: &spec})
			if rj.attempt > 0 {
				out = append(out, journalRecord{Type: recRunning, ID: rj.id, Key: rj.key, Attempt: rj.attempt, Worker: rj.worker})
			}
		}
	}
	return out
}
