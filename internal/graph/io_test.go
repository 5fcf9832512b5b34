package graph

import (
	"encoding/json"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := Cycle(5)
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatalf("round trip differs:\n%s", sb.String())
	}
}

func TestReadEdgeListCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n3\n# another\n0 1\n\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(Path(3)) {
		t.Fatalf("parsed %v", g.Edges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad count":    "x\n",
		"neg count":    "-2\n",
		"bad edge":     "3\n0 x\n",
		"out of range": "3\n0 7\n",
		"self-loop":    "3\n1 1\n",
		"duplicate":    "3\n0 1\n1 0\n",
	}
	for name, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestGraphJSONRoundTrip(t *testing.T) {
	g := Grid(3, 3)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(&back) {
		t.Fatal("JSON round trip differs")
	}
}

func TestGraphJSONErrors(t *testing.T) {
	cases := []string{
		`{nope`,
		`{"n": -1, "edges": []}`,
		`{"n": 3, "edges": [[0, 5]]}`,
		`{"n": 3, "edges": [[1, 1]]}`,
		`{"n": 3, "edges": [[0, 1], [1, 0]]}`,
	}
	for i, in := range cases {
		var g Graph
		if err := json.Unmarshal([]byte(in), &g); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// Property: both serializations round-trip arbitrary random graphs.
func TestQuickSerializationRoundTrip(t *testing.T) {
	f := func(seed int64, size uint8, pTenths uint8) bool {
		n := int(size % 20)
		rng := rand.New(rand.NewSource(seed))
		g := RandomGNP(n, float64(pTenths%11)/10, rng)

		var sb strings.Builder
		if err := WriteEdgeList(&sb, g); err != nil {
			return false
		}
		back, err := ReadEdgeList(strings.NewReader(sb.String()))
		if err != nil || !g.Equal(back) {
			return false
		}

		data, err := json.Marshal(g)
		if err != nil {
			return false
		}
		var jback Graph
		if err := json.Unmarshal(data, &jback); err != nil {
			return false
		}
		return g.Equal(&jback)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Node IDs are 32-bit, so a count past math.MaxInt32 must be refused
// before anything is allocated: the decoders return an error, New
// panics.
func TestNodeCountBeyond32Bits(t *testing.T) {
	refusers := []struct {
		name   string
		refuse func(n string) bool
	}{
		{"ReadEdgeList", func(n string) bool {
			_, err := ReadEdgeList(strings.NewReader(n + "\n0 1\n"))
			return err != nil
		}},
		{"UnmarshalJSON", func(n string) bool {
			var g Graph
			return json.Unmarshal([]byte(`{"n":`+n+`,"edges":[[0,1]]}`), &g) != nil
		}},
		{"New", func(n string) (panicked bool) {
			count, _ := strconv.Atoi(n)
			defer func() { panicked = recover() != nil }()
			New(count)
			return false
		}},
	}
	for _, n := range []string{"2147483648", "9223372036854775807"} {
		for _, r := range refusers {
			if !r.refuse(n) {
				t.Errorf("%s accepted node count %s", r.name, n)
			}
		}
	}
}

// A rejected decode leaves the graph as it was; an accepted one replaces
// the edge set and moves the version past the old value.
func TestGraphJSONDecodeInstallsOnlyOnSuccess(t *testing.T) {
	g := Path(4)
	v := g.Version()
	if err := json.Unmarshal([]byte(`{"n": 4, "edges": [[0, 2], [1, 1]]}`), g); err == nil {
		t.Fatal("self-loop accepted")
	}
	if !g.Equal(Path(4)) || g.Version() != v {
		t.Fatalf("rejected decode left %v at version %d, want the path at %d", g.Edges(), g.Version(), v)
	}
	if err := json.Unmarshal([]byte(`{"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}`), g); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(Star(4)) || g.Version() <= v {
		t.Fatalf("decoded %v at version %d, want the star above %d", g.Edges(), g.Version(), v)
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
}
