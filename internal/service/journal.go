package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Mutation is one journaled topology/state event. Exactly the fields a
// replay needs: the operation, its operands, and the idempotency key
// clients may attach.
type Mutation struct {
	Seq   int64  `json:"seq"`
	Op    string `json:"op"`
	U     *int   `json:"u,omitempty"`
	V     *int   `json:"v,omitempty"`
	Nodes []int  `json:"nodes,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	// Rounds is a converge entry's round budget, journaled before its
	// epoch runs: the requested rounds, capped at bound+1, which is also
	// the default. Zero for other ops, whose budget is always bound+1.
	Rounds int `json:"rounds,omitempty"`
	// Stable is read only from converge entries of the earlier format,
	// journaled after their epoch with the active rounds that ran. Set,
	// it says a quiet round then found the fixed point, so the entry
	// replays with budget Rounds+1 (see tenant.epochBudget). New
	// entries never set it.
	Stable bool   `json:"stable,omitempty"`
	Key    string `json:"key,omitempty"`
}

// Mutation operations accepted by the API and understood by replay.
const (
	OpAddEdge    = "add_edge"
	OpRemoveEdge = "remove_edge"
	OpAddNode    = "add_node"
	OpRemoveNode = "remove_node"
	OpCorrupt    = "corrupt"
	OpConverge   = "converge"
	// OpChaosPanic deliberately crashes the tenant event loop (chaos
	// testing only; never journaled — replaying a panic would make
	// recovery re-crash forever).
	OpChaosPanic = "chaos_panic"
)

// tenantSnapshot is a deterministic checkpoint: full state vector, the
// topology's drift from meta.json, and every counter a restarted tenant
// must resume with. Written at mutation-sequence boundaries only, so
// (meta, snapshot, journal entries with seq > Snapshot.Seq) replays to
// the exact live state. tenant.checkpointBody encodes it; json.Unmarshal
// decodes it.
type tenantSnapshot struct {
	Seq             int64 `json:"seq"`
	Rounds          int   `json:"rounds"`
	Moves           int   `json:"moves"`
	Converged       bool  `json:"converged"`
	EpochsOverBound int   `json:"epochs_over_bound"`
	MaxEpochRounds  int   `json:"max_epoch_rounds"`
	LastEpochRounds int   `json:"last_epoch_rounds"`
	// Edges is the whole live topology, as checkpoints of the earlier
	// format hold it (always an array, never null); its presence marks
	// that format. Current checkpoints omit it.
	Edges [][2]int `json:"edges,omitempty"`
	// Added and Removed are the drift: the edges live now but absent
	// from meta.json's creation topology, and the reverse, ascending.
	Added   [][2]int        `json:"added"`
	Removed [][2]int        `json:"removed"`
	States  json.RawMessage `json:"states"`
	// DedupKeys persists the idempotency window (ascending seq) so a
	// recovered tenant still rejects duplicates of pre-crash requests.
	DedupKeys []dedupEntry `json:"dedup_keys,omitempty"`
}

type dedupEntry struct {
	Key string `json:"key"`
	Seq int64  `json:"seq"`
}

// defaultSegmentBytes rotates the journal to a fresh segment once the
// active one passes this size; checkpoints then retire covered
// segments, bounding replay to snapshot + live suffix.
const defaultSegmentBytes = 4 << 20

// segment is one on-disk journal file. size is the validated byte
// length (buffered-but-unflushed appends included for the active
// segment); last is the seq of the segment's final entry, 0 when empty.
type segment struct {
	num  int64
	size int64
	last int64
}

// journal is the append-only write-ahead log for one tenant, split into
// numbered JSONL segment files. Entries are buffered by append and made
// durable in groups by commit (one fsync per batch, issued before any
// entry of the batch is applied), so every acknowledged mutation is
// durable and a torn final line (crash mid-write) is detected and
// discarded on open. Rotation happens only at commit boundaries, so
// every segment except the last ends on a complete, fsynced line.
type journal struct {
	dir      string
	segBytes int64
	f        *os.File // active (last) segment
	w        *bufio.Writer
	segs     []segment
	// pendingN counts entries buffered since the last commit — appended
	// but not yet durable, so not yet applicable.
	pendingN int
	appends  int64
	fsyncs   int64
	commits  int64
}

// journalStats is the observability snapshot behind the varz journal
// block.
type journalStats struct {
	appends   int64
	fsyncs    int64
	commits   int64
	segments  int
	liveBytes int64
}

func segmentPath(dir string, num int64) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%012d.jsonl", num))
}

// segmentNums lists the journal segment numbers present in dir,
// ascending. Non-segment files are ignored.
func segmentNums(dir string) ([]int64, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var nums []int64
	for _, de := range des {
		name := de.Name()
		if !strings.HasPrefix(name, "journal-") || !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "journal-"), ".jsonl"), 10, 64)
		if err != nil || v <= 0 {
			continue
		}
		nums = append(nums, v)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	return nums, nil
}

// openJournal opens (or creates) a tenant's segmented journal and
// returns every entry, concatenated across segments in order. Non-final
// segments were sealed by a successful commit, so any damage there is
// corruption and fails loudly; torn-tail truncation applies only to the
// last segment, the only one a crash can tear.
func openJournal(dir string, segBytes int64) (*journal, []Mutation, error) {
	if segBytes <= 0 {
		segBytes = defaultSegmentBytes
	}
	nums, err := segmentNums(dir)
	if err != nil {
		return nil, nil, err
	}
	created := len(nums) == 0
	if created {
		nums = []int64{1}
	}
	for i := 1; i < len(nums); i++ {
		if nums[i] != nums[i-1]+1 {
			return nil, nil, fmt.Errorf("journal segment gap: segment %d follows segment %d (a middle segment was deleted or misnumbered)", nums[i], nums[i-1])
		}
	}
	var (
		entries []Mutation
		segs    []segment
		lastSeq int64
	)
	for _, num := range nums[:len(nums)-1] {
		es, size, err := readSegmentStrict(segmentPath(dir, num), num, lastSeq)
		if err != nil {
			return nil, nil, err
		}
		seg := segment{num: num, size: size}
		if len(es) > 0 {
			seg.last = es[len(es)-1].Seq
			lastSeq = seg.last
		}
		entries = append(entries, es...)
		segs = append(segs, seg)
	}
	lastNum := nums[len(nums)-1]
	lastPath := segmentPath(dir, lastNum)
	lastEntries, good, err := readJournal(lastPath)
	if err != nil {
		return nil, nil, err
	}
	if len(lastEntries) > 0 && lastEntries[0].Seq <= lastSeq {
		return nil, nil, fmt.Errorf("journal segment %d: entry seq %d not after seq %d (segments out of order)", lastNum, lastEntries[0].Seq, lastSeq)
	}
	f, err := os.OpenFile(lastPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	// Drop any torn tail so the next append starts on a clean line.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	if created {
		// The brand-new segment's directory entry must be durable before
		// any acknowledged entry lands in it: fsync on the file alone
		// does not persist the name.
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	seg := segment{num: lastNum, size: good}
	if len(lastEntries) > 0 {
		seg.last = lastEntries[len(lastEntries)-1].Seq
	}
	segs = append(segs, seg)
	entries = append(entries, lastEntries...)
	j := &journal{
		dir:      dir,
		segBytes: segBytes,
		f:        f,
		w:        bufio.NewWriterSize(f, 64<<10),
		segs:     segs,
	}
	return j, entries, nil
}

// readSegmentStrict parses a sealed (non-final) segment. Rotation only
// happens after a successful commit, so a crash cannot tear these
// files: every line must be complete, well-formed, and in ascending
// sequence after prevSeq. Damage here is corruption or tampering, and
// recovery fails loudly instead of silently dropping entries.
//
//selfstab:journal-read
func readSegmentStrict(path string, num, prevSeq int64) ([]Mutation, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var (
		entries []Mutation
		size    int64
	)
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, 0, err
		}
		if len(line) > 0 && err != nil {
			return nil, 0, fmt.Errorf("journal segment %d: torn final line in a sealed segment", num)
		}
		if err != nil {
			break
		}
		var m Mutation
		if jerr := json.Unmarshal(line, &m); jerr != nil {
			return nil, 0, fmt.Errorf("journal segment %d: corrupt entry: %v", num, jerr)
		}
		if m.Seq <= prevSeq {
			return nil, 0, fmt.Errorf("journal segment %d: entry seq %d not after seq %d (segments out of order)", num, m.Seq, prevSeq)
		}
		prevSeq = m.Seq
		size += int64(len(line))
		entries = append(entries, m)
	}
	return entries, size, nil
}

// readJournal parses the final (active) segment, returning the decoded
// entries and the byte offset of the end of the last complete,
// well-formed line.
//
//selfstab:journal-read
func readJournal(path string) ([]Mutation, int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var (
		entries []Mutation
		good    int64
	)
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			// A final fragment without a newline is a torn write from a
			// crash: the mutation was never acknowledged, drop it.
			break
		}
		var m Mutation
		if jerr := json.Unmarshal(line, &m); jerr != nil {
			// A complete but corrupt line also ends the valid prefix.
			break
		}
		good += int64(len(line))
		entries = append(entries, m)
	}
	return entries, good, nil
}

// append buffers one entry onto the active segment. The entry is NOT
// durable until the next commit; callers must commit (one fsync for the
// whole batch) before applying or acknowledging it.
//
//selfstab:journal
func (j *journal) append(m Mutation) error {
	line, err := json.Marshal(m)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := j.w.Write(line); err != nil {
		return err
	}
	active := &j.segs[len(j.segs)-1]
	active.size += int64(len(line))
	active.last = m.Seq
	j.pendingN++
	j.appends++
	return nil
}

// commit makes every buffered entry durable with a single fsync, then
// rotates to a fresh segment if the active one is full. A clean journal
// (nothing buffered) commits for free, so callers can invoke it
// unconditionally per batch.
//
//selfstab:journal
func (j *journal) commit() error {
	if j.pendingN == 0 {
		return nil
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.fsyncs++
	j.commits++
	j.pendingN = 0
	if j.segs[len(j.segs)-1].size >= j.segBytes {
		return j.rotate()
	}
	return nil
}

// rotate seals the active segment and opens the next numbered one. Only
// called from commit, so sealed segments always end on a complete,
// fsynced line.
func (j *journal) rotate() error {
	if err := j.f.Close(); err != nil {
		return err
	}
	next := j.segs[len(j.segs)-1].num + 1
	f, err := os.OpenFile(segmentPath(j.dir, next), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	// Persist the new segment's directory entry before anything
	// acknowledged lands in it: a post-crash recovery that cannot see
	// the file would silently lose every entry fsynced into it.
	if err := syncDir(j.dir); err != nil {
		f.Close()
		return err
	}
	j.f = f
	j.w.Reset(f)
	j.segs = append(j.segs, segment{num: next})
	return nil
}

// compact retires every sealed segment whose entries are all covered by
// the snapshot at snapSeq, bounding replay to snapshot + live suffix.
// Deletion runs oldest-first so a crash mid-compaction still leaves a
// contiguous segment range.
func (j *journal) compact(snapSeq int64) error {
	for len(j.segs) > 1 {
		s := j.segs[0]
		if s.last == 0 || s.last > snapSeq {
			return nil
		}
		if err := os.Remove(segmentPath(j.dir, s.num)); err != nil {
			return err
		}
		j.segs = j.segs[1:]
	}
	return nil
}

// firstSegment returns the number of the oldest live segment: 1 until
// a checkpoint lets compact retire segments.
func (j *journal) firstSegment() int64 { return j.segs[0].num }

// pendingEntries reports how many appends are buffered awaiting the
// next commit.
func (j *journal) pendingEntries() int { return j.pendingN }

func (j *journal) stats() journalStats {
	var bytes int64
	for _, s := range j.segs {
		bytes += s.size
	}
	return journalStats{
		appends:   j.appends,
		fsyncs:    j.fsyncs,
		commits:   j.commits,
		segments:  len(j.segs),
		liveBytes: bytes,
	}
}

// close releases the active segment. Buffered entries that were never
// committed are dropped deliberately: they were never acknowledged, and
// on the kill path recovery replays only what commit made durable.
func (j *journal) close() error { return j.f.Close() }

// syncDir fsyncs a directory so freshly created entries (new journal
// segments) survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

func tenantDir(dataDir, id string) string {
	return filepath.Join(dataDir, "tenants", id)
}

func snapshotPath(dir string, seq int64) string {
	return filepath.Join(dir, fmt.Sprintf("snapshot-%012d.json", seq))
}

// writeSnapshot lands the checkpoint body of seq and retires the older
// checkpoints. Once the caller compacts, recovery depends on this file,
// so the order is: fsync the body, rename it into place, fsync the
// directory so the rename is durable, and only then unlink what it
// licenses, the older checkpoints here and the covered segments in
// compact. Without the directory fsync a crash could keep the unlinks
// and lose the checkpoint.
func writeSnapshot(dir string, seq int64, body []byte) error {
	if err := atomicWrite(snapshotPath(dir, seq), body); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	// Retire older checkpoints; the newest is self-sufficient.
	names, err := snapshotSeqs(dir)
	if err != nil {
		return err
	}
	for _, s := range names {
		if s < seq {
			os.Remove(snapshotPath(dir, s))
		}
	}
	return nil
}

// latestSnapshot loads the newest complete checkpoint, or ok=false when
// the tenant has never snapshotted (replay then starts from meta).
//
//selfstab:journal-read
func latestSnapshot(dir string) (tenantSnapshot, bool, error) {
	seqs, err := snapshotSeqs(dir)
	if err != nil || len(seqs) == 0 {
		return tenantSnapshot{}, false, err
	}
	// Newest first; fall back on an unreadable file. The fallback is only
	// as good as the journal behind it: recoverFrom fails unless the
	// entries after the checkpoint it gets are all there.
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, s := range seqs {
		raw, err := os.ReadFile(snapshotPath(dir, s))
		if err != nil {
			continue
		}
		var snap tenantSnapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			continue
		}
		return snap, true, nil
	}
	return tenantSnapshot{}, false, nil
}

func snapshotSeqs(dir string) ([]int64, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int64
	for _, de := range des {
		name := de.Name()
		if !strings.HasPrefix(name, "snapshot-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		s, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "snapshot-"), ".json"), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, s)
	}
	return seqs, nil
}

// atomicWrite lands content via rename so readers (and crash recovery)
// never observe a half-written file.
//
//selfstab:snapshot
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
