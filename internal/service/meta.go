package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// tenantMeta is the immutable identity of a tenant: the body of POST
// /v1/tenants, written once at creation as meta.json. Everything else
// about the tenant is a pure function of (meta, journal prefix), which
// is the whole recovery story: replay = snapshot + journal suffix.
//
// Both directions go through one codec without reflection. appendMeta
// writes the bytes json.Marshal writes, and parseMeta reads that
// canonical form back in one pass, handing every other input to
// encoding/json, so values and errors stay encoding/json's own.
type tenantMeta struct {
	ID       string   `json:"id"`
	Protocol string   `json:"protocol"`
	N        int      `json:"n"`
	Seed     int64    `json:"seed"`
	Edges    [][2]int `json:"edges"`
}

// maxTenantN bounds a tenant's node count.
const maxTenantN = 1 << 22

// A tenant directory is built under stagePrefix+id and removed from
// under gonePrefix+id. validTenantID never produces a name with a dot,
// so neither can collide with a tenant, and Open removes both as the
// leftovers of a crash.
const (
	stagePrefix = ".new-"
	gonePrefix  = ".gone-"
)

// validateMeta is the check a tenant's identity must pass on create and
// on open: a valid id, n in [1, maxTenantN], a known protocol and edges
// with distinct endpoints in [0, n).
func validateMeta(m tenantMeta) error {
	if m.ID == "" || !validTenantID(m.ID) {
		return fmt.Errorf("invalid tenant id %q", m.ID)
	}
	if m.N <= 0 || m.N > maxTenantN {
		return fmt.Errorf("tenant n=%d out of range [1, %d]", m.N, maxTenantN)
	}
	if m.Protocol != ProtocolSMM && m.Protocol != ProtocolSMI {
		return fmt.Errorf("unknown protocol %q (want %q or %q)", m.Protocol, ProtocolSMM, ProtocolSMI)
	}
	for _, e := range m.Edges {
		// Checked as ints: NodeID is 32-bit, so converting first would
		// wrap an out-of-range endpoint into range.
		if !distinctInRange(e[0], e[1], m.N) {
			return fmt.Errorf("invalid edge [%d, %d] for n=%d", e[0], e[1], m.N)
		}
	}
	return nil
}

// appendMeta appends m byte for byte as json.Marshal writes it.
func appendMeta(b []byte, m tenantMeta) []byte {
	b = slices.Grow(b, 64+len(m.ID)+len(m.Protocol)+len(m.Edges)*pairLen(m.N))
	b = appendJSONString(append(b, `{"id":`...), m.ID)
	b = appendJSONString(append(b, `,"protocol":`...), m.Protocol)
	b = strconv.AppendInt(append(b, `,"n":`...), int64(m.N), 10)
	b = strconv.AppendInt(append(b, `,"seed":`...), m.Seed, 10)
	b = append(b, `,"edges":`...)
	if m.Edges == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, e := range m.Edges {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendPair(b, e[0], e[1])
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// decodeCreate decodes a POST /v1/tenants body as
// json.NewDecoder(body).Decode does: the first JSON value, with
// whatever follows it ignored.
func decodeCreate(body io.Reader) (tenantMeta, error) {
	raw, err := io.ReadAll(body)
	if err == nil {
		if m, _, ok := parseMeta(raw); ok {
			return m, nil
		}
	}
	// Non-canonical, or cut short by a read error: encoding/json reads
	// the same stream, the bytes already read and then the rest. Its
	// errors name the struct they fill, so the request keeps its name.
	type createRequest tenantMeta
	var req createRequest
	err = json.NewDecoder(io.MultiReader(bytes.NewReader(raw), body)).Decode(&req)
	return tenantMeta(req), err
}

// unmarshalMeta decodes meta.json as json.Unmarshal does: one JSON
// value and nothing after it but white space.
func unmarshalMeta(raw []byte) (tenantMeta, error) {
	if m, rest, ok := parseMeta(raw); ok && len(bytes.TrimLeft(rest, " \t\r\n")) == 0 {
		return m, nil
	}
	var m tenantMeta
	err := json.Unmarshal(raw, &m)
	return m, err
}

// parseMeta reads the canonical form appendMeta writes, in one pass:
// the five fields in order, no white space, strings of printable ASCII
// with no escapes, integers without fraction or exponent (n and the
// endpoints of at most 9 digits, which fit an int anywhere, the seed of
// at most 18, which fit an int64), and edges null or a list of [u,v]
// pairs. rest is what follows the closing brace. ok is false for any
// other input, including the inputs encoding/json treats specially:
// keys in other cases, repeated or unknown keys, pairs of another
// length, escapes.
func parseMeta(b []byte) (m tenantMeta, rest []byte, ok bool) {
	s := metaScanner{b: b}
	var n, seed int64
	ok = s.lit(`{"id":`) && s.str(&m.ID) &&
		s.lit(`,"protocol":`) && s.str(&m.Protocol) &&
		s.lit(`,"n":`) && s.int(&n, 9) &&
		s.lit(`,"seed":`) && s.int(&seed, 18) &&
		s.lit(`,"edges":`) && s.edges(&m.Edges) &&
		s.ch('}')
	if !ok {
		return tenantMeta{}, nil, false
	}
	m.N, m.Seed = int(n), seed
	return m, b[s.i:], true
}

// metaScanner is parseMeta's cursor. Each method consumes one token
// when it matches and reports whether it did.
type metaScanner struct {
	b []byte
	i int
}

func (s *metaScanner) lit(l string) bool {
	if len(s.b)-s.i < len(l) || string(s.b[s.i:s.i+len(l)]) != l {
		return false
	}
	s.i += len(l)
	return true
}

// ch is lit for one byte, cheap enough for the per-edge punctuation.
func (s *metaScanner) ch(c byte) bool {
	if s.i == len(s.b) || s.b[s.i] != c {
		return false
	}
	s.i++
	return true
}

func (s *metaScanner) str(v *string) bool {
	if !s.ch('"') {
		return false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			*v = string(s.b[s.i:j])
			s.i = j + 1
			return true
		case c < 0x20 || c > 0x7e || c == '\\':
			return false
		}
	}
	return false
}

func (s *metaScanner) int(v *int64, maxDigits int) bool {
	neg := s.ch('-')
	j := s.i
	for j < len(s.b) && s.b[j] >= '0' && s.b[j] <= '9' {
		j++
	}
	d := s.b[s.i:j]
	if len(d) == 0 || len(d) > maxDigits || d[0] == '0' && len(d) > 1 {
		return false
	}
	var x int64
	for _, c := range d {
		x = 10*x + int64(c-'0')
	}
	if neg {
		x = -x
	}
	*v, s.i = x, j
	return true
}

// edges reads null, [] or [[u,v],...]; json.Unmarshal leaves a nil
// slice for null and makes an empty one for [].
func (s *metaScanner) edges(v *[][2]int) bool {
	if s.lit("null") {
		return true
	}
	if s.lit("[]") {
		*v = [][2]int{}
		return true
	}
	if !s.ch('[') {
		return false
	}
	es := make([][2]int, 0, bytes.Count(s.b[s.i:], []byte("[")))
	for {
		var u, w int64
		if !(s.ch('[') && s.int(&u, 9) && s.ch(',') && s.int(&w, 9) && s.ch(']')) {
			return false
		}
		es = append(es, [2]int{int(u), int(w)})
		if s.ch(']') {
			*v = es
			return true
		}
		if !s.ch(',') {
			return false
		}
	}
}

func writeMeta(dir string, meta tenantMeta) error {
	return atomicWrite(filepath.Join(dir, "meta.json"), appendMeta(nil, meta))
}

// readMeta reads a tenant's meta.json and checks it as creation does,
// and that its id is the directory's name: two directories claiming one
// id would otherwise register twice, the second replacing the first.
//
//selfstab:journal-read
func readMeta(dir string) (tenantMeta, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return tenantMeta{}, err
	}
	meta, err := unmarshalMeta(raw)
	if err == nil {
		err = validateMeta(meta)
	}
	if err == nil && meta.ID != filepath.Base(dir) {
		err = fmt.Errorf("id %q is not the directory's name", meta.ID)
	}
	if err != nil {
		return tenantMeta{}, fmt.Errorf("meta.json: %w", err)
	}
	return meta, nil
}

// createTenantDir lands a new tenant's directory, holding only
// meta.json, in one step a crash cannot split. It is built under a
// staging name, renamed into place once meta.json is durable, and the
// rename itself is made durable before createTenantDir returns. A crash
// before the rename leaves a staging directory, which Open removes.
func createTenantDir(dataDir string, meta tenantMeta) error {
	root := filepath.Join(dataDir, "tenants")
	stage := filepath.Join(root, stagePrefix+meta.ID)
	err := os.MkdirAll(stage, 0o755)
	if err == nil {
		err = writeMeta(stage, meta)
	}
	if err == nil {
		err = syncDir(stage)
	}
	if err == nil {
		err = os.Rename(stage, tenantDir(dataDir, meta.ID))
	}
	if err != nil {
		os.RemoveAll(stage)
		return err
	}
	if err := syncDir(root); err != nil {
		removeTenantDir(dataDir, meta.ID)
		return err
	}
	return nil
}

// removeTenantDir deletes a tenant's directory so that a crash midway
// cannot leave a half-deleted tenant for Open to recover: it is renamed
// out of the way first, and the rename made durable, before anything in
// it is removed. Open removes what a crash leaves under that name.
func removeTenantDir(dataDir, id string) error {
	root := filepath.Join(dataDir, "tenants")
	gone := filepath.Join(root, gonePrefix+id)
	// A removal that failed earlier in this process may have left one.
	if err := os.RemoveAll(gone); err != nil {
		return err
	}
	if err := os.Rename(tenantDir(dataDir, id), gone); err != nil {
		return err
	}
	if err := syncDir(root); err != nil {
		return err
	}
	return os.RemoveAll(gone)
}

// isLeftover reports whether a name under tenants/ is a staged or
// half-removed directory a crash left behind.
func isLeftover(name string) bool {
	return strings.HasPrefix(name, stagePrefix) || strings.HasPrefix(name, gonePrefix)
}
