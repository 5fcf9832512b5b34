// Package sarif renders lint diagnostics as SARIF 2.1.0, the static
// analysis interchange format GitHub code scanning ingests, so findings
// from the repository's analyzers annotate pull requests instead of
// living only in CI logs.
//
// The vet-tool driver runs once per compilation unit in separate
// processes, so a single report cannot be written directly: each unit
// with findings writes a small JSON fragment into a shared directory
// (WriteFragment), and a final merge step folds every fragment into one
// SARIF report (Merge). Clean units write nothing — absence from the
// fragment directory is the success case, which also makes the scheme
// immune to `go vet`'s per-package result caching: cached units are
// exactly the ones with no findings.
package sarif

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Finding is one diagnostic in driver-neutral form.
type Finding struct {
	// File is the path as the driver saw it (usually absolute).
	File string `json:"file"`
	// Line and Col are 1-based.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message is the diagnostic text.
	Message string `json:"message"`
	// Analyzer names the rule that fired.
	Analyzer string `json:"analyzer"`
}

// A Fragment is the findings of one compilation unit.
type Fragment struct {
	// ImportPath identifies the unit (also keys the fragment file name).
	ImportPath string    `json:"importPath"`
	Findings   []Finding `json:"findings"`
}

// WriteFragment stores the unit's findings in dir, creating it if
// needed. The file name is a hash of the import path, so concurrent
// units never collide and re-analysis overwrites rather than duplicates.
func WriteFragment(dir string, frag Fragment) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	data, err := json.MarshalIndent(frag, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%x.json", sha256.Sum256([]byte(frag.ImportPath)))
	return os.WriteFile(filepath.Join(dir, name), data, 0o666)
}

// A Rule describes one analyzer for the report's tool metadata.
type Rule struct {
	ID  string
	Doc string // first line is used as the short description
}

// Report is a SARIF 2.1.0 document (the subset GitHub code scanning
// consumes).
type Report struct {
	Schema  string `json:"$schema"`
	Version string `json:"version"`
	Runs    []Run  `json:"runs"`
}

type Run struct {
	Tool    Tool     `json:"tool"`
	Results []Result `json:"results"`
}

type Tool struct {
	Driver Driver `json:"driver"`
}

type Driver struct {
	Name           string       `json:"name"`
	InformationURI string       `json:"informationUri,omitempty"`
	Rules          []ReportRule `json:"rules"`
}

type ReportRule struct {
	ID               string  `json:"id"`
	ShortDescription Message `json:"shortDescription"`
}

type Message struct {
	Text string `json:"text"`
}

type Result struct {
	RuleID    string     `json:"ruleId"`
	Level     string     `json:"level"`
	Message   Message    `json:"message"`
	Locations []Location `json:"locations"`
}

type Location struct {
	PhysicalLocation PhysicalLocation `json:"physicalLocation"`
}

type PhysicalLocation struct {
	ArtifactLocation ArtifactLocation `json:"artifactLocation"`
	Region           Region           `json:"region"`
}

type ArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type Region struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// Merge reads every fragment in dir (which may be absent: an absent or
// empty directory is a clean run) and builds one report. File paths are
// rewritten relative to root so the report is portable; findings are
// sorted by file, line, column, and analyzer for byte-identical reports
// across runs.
func Merge(dir, root string, rules []Rule) (*Report, error) {
	var findings []Finding
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var frag Fragment
		if err := json.Unmarshal(data, &frag); err != nil {
			return nil, fmt.Errorf("sarif: corrupt fragment %s: %v", e.Name(), err)
		}
		findings = append(findings, frag.Findings...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})

	results := make([]Result, 0, len(findings))
	for _, f := range findings {
		uri := f.File
		if root != "" {
			if rel, err := filepath.Rel(root, f.File); err == nil && !strings.HasPrefix(rel, "..") {
				uri = rel
			}
		}
		results = append(results, Result{
			RuleID:  f.Analyzer,
			Level:   "error", // make lint treats any finding as failing
			Message: Message{Text: f.Message},
			Locations: []Location{{PhysicalLocation: PhysicalLocation{
				ArtifactLocation: ArtifactLocation{URI: filepath.ToSlash(uri), URIBaseID: "%SRCROOT%"},
				Region:           Region{StartLine: f.Line, StartColumn: f.Col},
			}}},
		})
	}

	rr := make([]ReportRule, 0, len(rules))
	for _, r := range rules {
		short := r.Doc
		if i := strings.IndexByte(short, '\n'); i >= 0 {
			short = short[:i]
		}
		rr = append(rr, ReportRule{ID: r.ID, ShortDescription: Message{Text: short}})
	}
	sort.Slice(rr, func(i, j int) bool { return rr[i].ID < rr[j].ID })

	return &Report{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []Run{{
			Tool:    Tool{Driver: Driver{Name: "selfstablint", Rules: rr}},
			Results: results,
		}},
	}, nil
}

// Write renders the report as indented JSON.
func (r *Report) Write(w interface{ Write([]byte) (int, error) }) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
