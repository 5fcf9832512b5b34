package service

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestStatusSurvivesReopen requires the whole status read, byte for
// byte, to survive a kill and reopen, whether the tenant stopped at a
// checkpoint seq (recovery reads the checkpoint alone) or between two
// (recovery replays a journal suffix after it), after a mutation epoch
// or after a converge.
func TestStatusSurvivesReopen(t *testing.T) {
	const n = 12
	cases := []struct {
		name             string
		script           []Mutation
		snapEvery, steps int
		// epochRan marks a stop at a checkpoint right after an epoch that
		// ran rounds under both protocols: last_epoch_rounds is then
		// nonzero and can only come back from the checkpoint.
		epochRan bool
	}{
		{"seq6", mutationScript(n), 3, 6, false},
		{"seq7", mutationScript(n), 3, 7, false},
		{"corrupt-seq2", mutationScript(n), 2, 2, true},
		{"converge-seq6", convergeScript(n), 3, 6, false},   // a converge at a checkpoint
		{"converge-seq10", convergeScript(n), 3, 10, false}, // a converge in the replayed suffix
	}
	for _, proto := range []string{ProtocolSMM, ProtocolSMI} {
		for _, c := range cases {
			t.Run(proto+"/"+c.name, func(t *testing.T) {
				dir := t.TempDir()
				opts := Options{DataDir: dir, SnapshotEvery: c.snapEvery}
				svc, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				h := svc.Handler()
				pathTenant(t, h, "x", proto, n)
				applyScript(t, h, "x", c.script[:c.steps])
				before := statusJSON(t, h, "x")
				if c.epochRan {
					var st TenantStatus
					if err := json.Unmarshal(before, &st); err != nil {
						t.Fatal(err)
					}
					if st.Seq%int64(c.snapEvery) != 0 || st.LastEpochRounds == 0 {
						t.Fatalf("want a stop at a checkpoint after an epoch that ran rounds, got seq %d, last_epoch_rounds %d", st.Seq, st.LastEpochRounds)
					}
				}
				svc.Kill()

				after := statusJSON(t, newTestService(t, opts).Handler(), "x")
				if string(after) != string(before) {
					t.Fatalf("status changed across kill and reopen:\nbefore: %s\nafter:  %s", before, after)
				}
			})
		}
	}
}

func statusJSON(t *testing.T, h http.Handler, id string) []byte {
	t.Helper()
	var st TenantStatus
	if code, _ := doJSON(t, h, "GET", "/v1/tenants/"+id, nil, &st); code != http.StatusOK {
		t.Fatalf("status read: %d", code)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
