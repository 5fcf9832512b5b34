package service

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// FuzzJournalRecover is the journal recovery property, extended to
// segmented layouts. The script's entries are split across 1–4 segment
// files; only the final (active) segment may legally be damaged,
// because sealed segments end on a committed, fsynced line.
//
// Three regimes:
//
//   - Tail damage (the default): however the last segment's tail is
//     mangled — truncated mid-line, bit-flipped, or extended with
//     forged bytes — recovering from the damaged layout must behave
//     exactly like recovering from a twin whose last segment holds the
//     validated prefix (the bytes readJournal accepts). Either both
//     recoveries fail with the same error, or both land on the same
//     snapshot view. A divergence means readJournal's prefix validation
//     and recoverFrom's replay disagree about what the journal says.
//   - dropMid: a deleted middle segment must fail recovery loudly (a
//     segment-gap error), never silently skip the missing entries.
//   - swapSegs: two sealed segments with swapped contents (a forged or
//     misnumbered segment) must fail with an out-of-order error.
//
// A flip or tail can turn the cut into a complete, well-formed JSON
// line that the live path would have rejected — which is why
// replayEntry re-validates (see the comment there) and why this fuzz
// drives that seam.
func FuzzJournalRecover(f *testing.F) {
	f.Add(int64(1<<30), byte(0), []byte{}, uint8(0), false, false)                                                     // untouched journal
	f.Add(int64(37), byte(0), []byte(`{"seq":`), uint8(0), false, false)                                               // torn mid-line
	f.Add(int64(0), byte(0), []byte("\x00\xff\x00"), uint8(0), false, false)                                           // garbage from byte zero
	f.Add(int64(120), byte(1), []byte{}, uint8(0), false, false)                                                       // bit-flip inside the log
	f.Add(int64(1<<30), byte(0), []byte("{\"seq\":99,\"op\":\"add_edge\",\"u\":0,\"v\":3}\n"), uint8(0), false, false) // forged entry
	f.Add(int64(1<<30), byte(0), []byte("{\"seq\":99,\"op\":\"add_edge\"}\n"), uint8(0), false, false)                 // forged entry, nil operands
	f.Add(int64(37), byte(0), []byte(`{"seq":`), uint8(3), false, false)                                               // four segments, torn active tail
	f.Add(int64(1<<30), byte(0), []byte{}, uint8(2), true, false)                                                      // three segments, middle deleted
	f.Add(int64(1<<30), byte(0), []byte{}, uint8(2), false, true)                                                      // three segments, sealed pair swapped

	f.Fuzz(func(t *testing.T, cut int64, flip byte, tail []byte, segCount uint8, dropMid, swapSegs bool) {
		const n = 8
		meta := tenantMeta{ID: "fuzz", Protocol: ProtocolSMM, N: n, Seed: 42}
		// Converge entries of both journal formats sit between the
		// mutations: written ahead with their budget, and written after
		// their epoch ran, with and without stable.
		s := mutationScript(n)
		script := []Mutation{
			s[0], s[1],
			{Op: OpConverge, Rounds: n + 2, Key: "c1"},
			s[2], s[3],
			{Op: OpConverge, Stable: true},
			s[4],
			{Op: OpConverge, Rounds: 2, Stable: true},
			s[5],
			{Op: OpConverge},
			s[6],
			{Op: OpConverge, Rounds: 1},
			s[7],
		}
		lines := make([][]byte, 0, len(script))
		for i, m := range script {
			m.Seq = int64(i + 1)
			line, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, append(line, '\n'))
		}
		// Split the script into k contiguous segments; the ceil split
		// keeps every segment non-empty for k ≤ len(lines).
		k := 1 + int(segCount)%4
		segs := make([][]byte, k)
		per := (len(lines) + k - 1) / k
		for i, line := range lines {
			segs[i/per] = append(segs[i/per], line...)
		}

		// Damage applies to the active (last) segment only.
		last := segs[k-1]
		if cut < 0 {
			cut = ^cut
		}
		if cut > int64(len(last)) {
			cut = int64(len(last))
		}
		damaged := append([]byte(nil), last[:cut]...)
		if flip != 0 && len(damaged) > 0 {
			damaged[len(damaged)-1] ^= flip
		}
		damaged = append(damaged, tail...)

		// The validated prefix is whatever readJournal accepts from the
		// damaged active segment.
		scratch := filepath.Join(t.TempDir(), "journal-000000000001.jsonl")
		if err := os.WriteFile(scratch, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		_, good, err := readJournal(scratch)
		if err != nil {
			t.Fatal(err)
		}
		if good < 0 || good > int64(len(damaged)) {
			t.Fatalf("validated prefix %d outside [0, %d]", good, len(damaged))
		}

		// writeLayout materializes the segment files with lastBytes as
		// the active segment's content (k == 1: segment 1 alone).
		writeLayout := func(t *testing.T, lastBytes []byte) string {
			dir := t.TempDir()
			for i := 0; i < k-1; i++ {
				if err := os.WriteFile(segmentPath(dir, int64(i+1)), segs[i], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(segmentPath(dir, int64(k)), lastBytes, 0o644); err != nil {
				t.Fatal(err)
			}
			return dir
		}

		recoverDir := func(dir string) (SnapshotView, error) {
			tn, err := newTenant(context.Background(), dir, meta, tenantOptions{now: time.Now})
			if err != nil {
				return SnapshotView{}, err
			}
			view := tn.snapshotView()
			tn.close()
			<-tn.dead
			return view, nil
		}

		switch {
		case dropMid && k >= 3:
			dir := writeLayout(t, damaged)
			if err := os.Remove(segmentPath(dir, 2)); err != nil {
				t.Fatal(err)
			}
			if _, err := recoverDir(dir); err == nil || !strings.Contains(err.Error(), "segment gap") {
				t.Fatalf("deleted middle segment recovered silently (err=%v); want a segment-gap failure", err)
			}
		case swapSegs && k >= 3:
			dir := writeLayout(t, damaged)
			if err := os.WriteFile(segmentPath(dir, 1), segs[1], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(segmentPath(dir, 2), segs[0], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := recoverDir(dir); err == nil || !strings.Contains(err.Error(), "out of order") {
				t.Fatalf("swapped sealed segments recovered silently (err=%v); want an out-of-order failure", err)
			}
		default:
			viewDamaged, errDamaged := recoverDir(writeLayout(t, damaged))
			viewPrefix, errPrefix := recoverDir(writeLayout(t, damaged[:good]))
			switch {
			case errDamaged == nil && errPrefix == nil:
				rawDamaged, err := json.Marshal(viewDamaged)
				if err != nil {
					t.Fatal(err)
				}
				rawPrefix, err := json.Marshal(viewPrefix)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rawDamaged, rawPrefix) {
					t.Fatalf("damaged journal and validated prefix recover differently:\n%s\nvs\n%s", rawDamaged, rawPrefix)
				}
			case errDamaged != nil && errPrefix != nil:
				if errDamaged.Error() != errPrefix.Error() {
					t.Fatalf("recovery errors diverge: %v vs %v", errDamaged, errPrefix)
				}
			default:
				t.Fatalf("recovery outcomes diverge: damaged err=%v, prefix err=%v", errDamaged, errPrefix)
			}
		}
	})
}
