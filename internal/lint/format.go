package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// This file renders a finding list in the two report formats
// cmd/simlint offers: the conventional file:line:col text form and
// SARIF 2.1.0 for GitHub code scanning. Both emit findings in the order
// given — RunAll's total sort — so two runs over the same tree produce
// byte-identical reports.

// WriteText prints findings one per line as file:line:col: analyzer:
// message, with filenames relativized to root.
func WriteText(w io.Writer, root string, findings []Finding) error {
	for _, f := range findings {
		_, err := fmt.Fprintf(w, "%s:%d:%d: %s: %s\n",
			relPath(root, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Msg)
		if err != nil {
			return err
		}
	}
	return nil
}

// SARIF 2.1.0 structures — just the subset GitHub code scanning
// consumes. Field names and required members follow the OASIS schema;
// sarif_test.go checks an emitted log against those requirements.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// pseudoRules are finding sources that are not Analyzers: the directive
// scanner.
var pseudoRules = []sarifRule{
	{ID: "lint", ShortDescription: sarifMessage{
		Text: "//lint: directive syntax: ignore needs an analyzer and a reason; the verb must be a known one"}},
}

// WriteSARIF renders findings as a SARIF 2.1.0 log with one run whose
// rules are the analyzer roster (plus the lint pseudo-rule),
// suitable for GitHub code scanning upload. File URIs are relativized
// to root under the %SRCROOT% base id.
func WriteSARIF(w io.Writer, root string, findings []Finding, analyzers []Analyzer) error {
	rules := make([]sarifRule, 0, len(analyzers)+len(pseudoRules))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{
			ID:               a.Name(),
			ShortDescription: sarifMessage{Text: a.Doc()},
		})
	}
	rules = append(rules, pseudoRules...)

	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		// SARIF regions are 1-based; clamp a position-less finding.
		region := sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column}
		if region.StartLine < 1 {
			region.StartLine = 1
		}
		if region.StartColumn < 1 {
			region.StartColumn = 1
		}
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Msg},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       relPath(root, f.Pos.Filename),
						URIBaseID: "%SRCROOT%",
					},
					Region: region,
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:           "simlint",
				InformationURI: "https://github.com/paper-repro/brainsim#static-analysis",
				Rules:          rules,
			}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relPath maps an absolute source position to the module-relative
// forward-slash form reports are keyed by.
func relPath(root, filename string) string {
	if rel, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}
