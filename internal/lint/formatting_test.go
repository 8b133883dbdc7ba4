package lint

import (
	"bytes"
	"go/format"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTestdataExemptFromGofmt pins the formatting-gate carve-out.
// Analyzer fixtures under testdata are invisible to the go tool (build,
// vet, test all skip testdata directories), and the gofmt gate, which
// scripts/gofmt_check.sh states for scripts/check.sh and ci.yml,
// excludes the same paths — fixtures exist to exercise analyzers, not
// to be style-clean, and future fixtures must be writable without
// fighting the formatter. The gofmt fixture is a deliberately
// unformatted canary: if it ever comes back formatted, someone ran a
// blanket gofmt over testdata and the exclusion is no longer exercised.
func TestTestdataExemptFromGofmt(t *testing.T) {
	path := filepath.Join("testdata", "src", "gofmt", "notformatted.go")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	formatted, err := format.Source(data)
	if err != nil {
		t.Fatalf("canary fixture must stay parseable: %v", err)
	}
	if bytes.Equal(formatted, data) {
		t.Fatalf("%s is gofmt-clean; the testdata-exclusion canary is gone", path)
	}

	// The gate itself must carve testdata out: it runs gofmt through a
	// find that prunes testdata paths, and both the local check script
	// and the CI workflow run that gate.
	read := func(elem ...string) string {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(append([]string{"..", ".."}, elem...)...))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if !strings.Contains(read("scripts", "gofmt_check.sh"), `-not -path '*/testdata/*'`) {
		t.Error("scripts/gofmt_check.sh: gofmt gate no longer excludes testdata paths")
	}
	for _, gate := range [][]string{{"scripts", "check.sh"}, {".github", "workflows", "ci.yml"}} {
		if !strings.Contains(read(gate...), "./scripts/gofmt_check.sh") {
			t.Errorf("%s does not run scripts/gofmt_check.sh", filepath.Join(gate...))
		}
	}
}
