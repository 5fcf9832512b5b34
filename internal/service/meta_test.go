package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// createRequest is the body of POST /v1/tenants as the tests build it,
// and the struct encoding/json filled from it before the codec: the
// decode reference of FuzzTenantMeta.
type createRequest tenantMeta

// TestMetaJSONMatchesEncodingJSON pins meta.json byte for byte to what
// json.Marshal wrote for it, so either version opens the other's data
// directory: null, empty and listed edges, and a negative seed.
func TestMetaJSONMatchesEncodingJSON(t *testing.T) {
	dir := t.TempDir()
	h := newTestService(t, Options{DataDir: dir}).Handler()
	for _, meta := range []tenantMeta{
		{ID: "nil-edges", Protocol: ProtocolSMM, N: 3, Seed: -9},
		{ID: "no-edges", Protocol: ProtocolSMI, N: 1, Seed: 0, Edges: [][2]int{}},
		{ID: "path", Protocol: ProtocolSMM, N: 12, Seed: 1 << 40, Edges: pathEdges(12)},
	} {
		if code, _ := doJSON(t, h, "POST", "/v1/tenants", meta, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", meta.ID, code)
		}
		got, err := os.ReadFile(filepath.Join(tenantDir(dir, meta.ID), "meta.json"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(meta)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: meta.json\ngot  %s\nwant %s", meta.ID, got, want)
		}
	}
}

// TestOpenValidatesMeta requires Open to check meta.json as create
// checks a request, and that its id is the directory's name, failing
// with an error that names the tenant. Before, n = -1 panicked in
// graph.New, n = 0 opened a tenant create refuses, and a copied
// directory registered its id a second time.
func TestOpenValidatesMeta(t *testing.T) {
	cases := []struct {
		name, meta, want string
	}{
		{"negative n", `{"id":"b","protocol":"smm","n":-1,"seed":1,"edges":null}`, "tenant n=-1 out of range [1, 4194304]"},
		{"zero n", `{"id":"b","protocol":"smm","n":0,"seed":1,"edges":null}`, "tenant n=0 out of range"},
		{"n past the cap", `{"id":"b","protocol":"smi","n":4194305,"seed":1,"edges":null}`, "tenant n=4194305 out of range"},
		{"unknown protocol", `{"id":"b","protocol":"tsp","n":4,"seed":1,"edges":null}`, `unknown protocol "tsp"`},
		{"id of another tenant", `{"id":"a","protocol":"smm","n":4,"seed":1,"edges":null}`, `id "a" is not the directory's name`},
		{"invalid id", `{"id":"","protocol":"smm","n":4,"seed":1,"edges":null}`, `invalid tenant id ""`},
		{"edge out of range", `{"id":"b","protocol":"smm","n":4,"seed":1,"edges":[[0,9]]}`, "invalid edge [0, 9] for n=4"},
		{"self loop", `{"id":"b","protocol":"smm","n":4,"seed":1,"edges":[[2,2]]}`, "invalid edge [2, 2] for n=4"},
		{"non-canonical negative n", "{\n  \"n\": -1, \"id\": \"b\", \"protocol\": \"smm\"\n}\n", "tenant n=-1 out of range"},
		{"not json", `{"id":"b",`, "meta.json: unexpected end of JSON input"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			svc := newTestService(t, Options{DataDir: dir})
			pathTenant(t, svc.Handler(), "a", ProtocolSMM, 4)
			svc.Kill()
			bdir := tenantDir(dir, "b")
			if err := os.MkdirAll(bdir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(bdir, "meta.json"), []byte(tc.meta), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(Options{DataDir: dir})
			if err == nil || !strings.HasPrefix(err.Error(), "recover tenant b: meta.json: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open = %v; want recover tenant b: meta.json: ...%s", err, tc.want)
			}
		})
	}

	// The same tenant written in another key order and with white space
	// still opens: encoding/json reads what the fast path does not.
	dir := t.TempDir()
	svc := newTestService(t, Options{DataDir: dir})
	pathTenant(t, svc.Handler(), "a", ProtocolSMM, 4)
	svc.Kill()
	meta := "{\n  \"edges\": [[0, 1], [1, 2], [2, 3]],\n  \"seed\": 42, \"n\": 4, \"protocol\": \"smm\", \"id\": \"a\"\n}\n"
	if err := os.WriteFile(filepath.Join(tenantDir(dir, "a"), "meta.json"), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}
	newTestService(t, Options{DataDir: dir})
}

// tenantNames lists the entries under a data directory's tenants/.
func tenantNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(filepath.Join(dir, "tenants"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

// TestStagedCreateAndDelete pins the on-disk steps of create and delete:
// neither leaves a staging directory behind, the same id can be created
// again after a delete, and Open removes what a crash in the middle of
// either would leave, a staged tenant with or without its meta.json and
// a half-removed one, while every tenant beside them recovers.
func TestStagedCreateAndDelete(t *testing.T) {
	dir := t.TempDir()
	svc := newTestService(t, Options{DataDir: dir})
	h := svc.Handler()
	pathTenant(t, h, "a", ProtocolSMM, 6)
	pathTenant(t, h, "b", ProtocolSMI, 6)
	if code, _ := doJSON(t, h, "DELETE", "/v1/tenants/b", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if got := tenantNames(t, dir); !slices.Equal(got, []string{"a"}) {
		t.Fatalf("after create and delete, tenants/ holds %q; want only a", got)
	}
	pathTenant(t, h, "b", ProtocolSMM, 4)
	applyScript(t, h, "a", mutationScript(6))
	before := snapshotJSON(t, h, "a")
	svc.Kill()

	// A crash after meta.json landed in the staging directory, one
	// during its write, and one in the middle of a delete.
	root := filepath.Join(dir, "tenants")
	leftovers := map[string]string{
		".new-c/meta.json":                   `{"id":"c","protocol":"smm","n":4,"seed":1,"edges":null}`,
		".new-d/meta.json.tmp":               `{"id":"d","prot`,
		".gone-e/journal-000000000001.jsonl": `{"seq":1,"op":"corrupt","nodes":[0]}` + "\n",
		".new-a/meta.json":                   `{"id":"a","protocol":"smi","n":2,"seed":1,"edges":null}`,
	}
	for name, body := range leftovers {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	svc2 := newTestService(t, Options{DataDir: dir})
	if got := tenantNames(t, dir); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("after reopen, tenants/ holds %q; want a and b", got)
	}
	if got := svc2.TenantIDs(); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("recovered tenants %q; want a and b", got)
	}
	if after := snapshotJSON(t, svc2.Handler(), "a"); !bytes.Equal(after, before) {
		t.Fatalf("tenant a changed across the reopen:\nbefore: %s\nafter:  %s", before, after)
	}
}

// FuzzTenantMeta holds the tenant codec to encoding/json. parseMeta
// either reads a value exactly as json.NewDecoder(...).Decode does for
// the create request, and as json.Unmarshal does for meta.json, or hands
// the input over, so both sides give the same value or the same error;
// appendMeta writes the bytes json.Marshal writes. The seeds are the
// inputs encoding/json treats specially.
func FuzzTenantMeta(f *testing.F) {
	for _, seed := range []string{
		`{"id":"a","protocol":"smm","n":4,"seed":7,"edges":[[0,1],[2,3]]}`,
		`{"id":"a","protocol":"smi","n":4,"seed":-7,"edges":null}`,
		`{"id":"","protocol":"","n":0,"seed":0,"edges":[]}`,
		`{"id":"a","protocol":"smm","n":4,"seed":7,"edges":[[1,2,3]]}`,                 // extra elements dropped
		`{"id":"a","protocol":"smm","n":4,"seed":7,"edges":[[1]]}`,                     // missing ones zero-filled
		`{"id":"a","protocol":"smm","n":4,"seed":7,"EDGES":[[0,1]]}`,                   // keys match in any case
		`{"Id":"a","protocol":"smm","n":4,"seed":7,"edges":null}`,                      // keys match in any case
		`{"id":"a","protocol":"smm","n":4,"seed":7,"edges":null,"id":"b"}`,             // the last repeat wins
		`{"id":"\u0061","protocol":"smm","n":4,"seed":7,"edges":null}`,                 // \u escapes
		`{"id":"a\n","protocol":"smm","n":4,"seed":7,"edges":null}`,                    // escapes
		`{"id":"a","protocol":"smm","n":4,"seed":7,"edges":null,"extra":[1]}`,          // unknown fields
		`{"id":"a","protocol":"smm","n":-0,"seed":-0,"edges":[[-0,1]]}`,                // negative zero
		`{"id":"a","protocol":"smm","n":1e2,"seed":7,"edges":null}`,                    // an exponent
		`{"id":"a","protocol":"smm","n":4,"seed":7,"edges":null}garbage`,               // trailing garbage
		`{"id":"a","protocol":"smm","n":4,"seed":7,"edges":null}` + " \r\n\t",          // trailing white space
		`{"id":"a","protocol":"smm","n":99999999999999999999,"seed":7,"edges":null}`,   // past int64
		`{"id":"a","protocol":"smm","n":4,"seed":999999999999999999,"edges":[[01,2]]}`, // a leading zero
		"{\"id\":\"<&>\",\"protocol\":\"\u2028\",\"n\":4,\"seed\":7,\"edges\":null}",   // characters json escapes
		` {"id":"a","protocol":"smm","n":4,"seed":7,"edges":null}`,                     // leading white space
		``, `null`, `{}`, `[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var req createRequest
		wantErr := json.NewDecoder(bytes.NewReader(raw)).Decode(&req)
		got, err := decodeCreate(bytes.NewReader(raw))
		sameDecode(t, "decodeCreate", got, err, tenantMeta(req), wantErr)

		var want tenantMeta
		wantErr = json.Unmarshal(raw, &want)
		got, err = unmarshalMeta(raw)
		sameDecode(t, "unmarshalMeta", got, err, want, wantErr)

		// The appender over the decoded value, and over strings and
		// numbers taken from the raw bytes, escapes and all.
		half := len(raw) / 2
		odd := tenantMeta{ID: string(raw[:half]), Protocol: string(raw[half:]), N: -len(raw), Seed: int64(len(raw)) << 40}
		for i := 0; i+1 < len(raw); i += 2 {
			odd.Edges = append(odd.Edges, [2]int{int(int8(raw[i])), int(raw[i+1]) << 20})
		}
		for _, m := range []tenantMeta{got, odd} {
			want, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendMeta(nil, m); !bytes.Equal(got, want) {
				t.Fatalf("appendMeta(%+v)\ngot  %s\nwant %s", m, got, want)
			}
		}
	})
}

func sameDecode(t *testing.T, name string, got tenantMeta, err error, want tenantMeta, wantErr error) {
	t.Helper()
	switch {
	case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%s: error %v, encoding/json's %v", name, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s: %#v, encoding/json's %#v", name, got, want)
	}
}
