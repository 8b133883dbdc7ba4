package lint

import (
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

func sampleFindings() []Finding {
	return []Finding{
		{Pos: token.Position{Filename: "/mod/internal/fem/solve.go", Line: 12, Column: 3},
			Analyzer: "nanguard", Msg: "comparison consumes a possibly non-finite value (division by unproven denominator); guard with math.IsNaN/math.IsInf or numeric.Finite first"},
		{Pos: token.Position{Filename: "/mod/internal/par/pool.go", Line: 40, Column: 2},
			Analyzer: "lockscope", Msg: "channel send while holding p.mu"},
		{Pos: token.Position{Filename: "/mod/internal/x.go"},
			Analyzer: "lint", Msg: "//lint:ignore needs an analyzer name and a reason"},
	}
}

// TestWriteSARIF validates the emitted log against the SARIF 2.1.0
// requirements GitHub code scanning enforces: version and $schema, a
// run with a named tool driver, every result referencing a declared
// rule, and physical locations with 1-based regions.
func TestWriteSARIF(t *testing.T) {
	var b strings.Builder
	if err := WriteSARIF(&b, "/mod", sampleFindings(), Analyzers()); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(b.String()), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if !strings.Contains(log.Schema, "sarif-schema-2.1.0.json") {
		t.Errorf("$schema = %q, want the 2.1.0 schema URI", log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "simlint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		if r.ID == "" || r.ShortDescription.Text == "" {
			t.Errorf("rule %+v lacks id or shortDescription", r)
		}
		if ruleIDs[r.ID] {
			t.Errorf("duplicate rule id %q", r.ID)
		}
		ruleIDs[r.ID] = true
	}
	if len(run.Results) != len(sampleFindings()) {
		t.Fatalf("got %d results, want %d", len(run.Results), len(sampleFindings()))
	}
	for i, r := range run.Results {
		if !ruleIDs[r.RuleID] {
			t.Errorf("result %d references undeclared rule %q", i, r.RuleID)
		}
		if r.Level != "error" || r.Message.Text == "" {
			t.Errorf("result %d lacks level/message: %+v", i, r)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result %d has %d locations", i, len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" || strings.HasPrefix(loc.ArtifactLocation.URI, "/") {
			t.Errorf("result %d artifact URI %q must be relative", i, loc.ArtifactLocation.URI)
		}
		if loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
			t.Errorf("result %d uriBaseId = %q", i, loc.ArtifactLocation.URIBaseID)
		}
		if loc.Region.StartLine < 1 || loc.Region.StartColumn < 1 {
			t.Errorf("result %d region %+v is not 1-based", i, loc.Region)
		}
	}
}
