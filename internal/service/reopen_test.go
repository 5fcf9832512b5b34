package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// TestStatusSurvivesReopen requires the whole status read, byte for
// byte, to survive a kill and reopen, whether the tenant stopped at a
// checkpoint seq (recovery reads the checkpoint alone) or between two
// (recovery replays a journal suffix after it).
func TestStatusSurvivesReopen(t *testing.T) {
	const n, snapEvery = 12, 3
	for _, proto := range []string{ProtocolSMM, ProtocolSMI} {
		for _, steps := range []int{6, 7} {
			t.Run(fmt.Sprintf("%s/seq%d", proto, steps), func(t *testing.T) {
				dir := t.TempDir()
				svc, err := Open(Options{DataDir: dir, SnapshotEvery: snapEvery})
				if err != nil {
					t.Fatal(err)
				}
				h := svc.Handler()
				pathTenant(t, h, "x", proto, n)
				applyScript(t, h, "x", mutationScript(n)[:steps])
				before := statusJSON(t, h, "x")
				svc.Kill()

				after := statusJSON(t, newTestService(t, Options{DataDir: dir, SnapshotEvery: snapEvery}).Handler(), "x")
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
