package lint

import (
	"go/token"
	"strings"
)

// suppressionIndex records, per file and line, which analyzers are
// ignored there. A //lint:ignore comment on line L covers findings on
// line L (trailing comment) and line L+1 (comment above the offending
// statement).
type suppressionIndex map[string]map[int]map[string]bool

func (s suppressionIndex) covers(analyzer string, pos token.Position) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if lines[line][analyzer] {
			return true
		}
	}
	return false
}

// directives recognised besides //lint:ignore. Anything else spelled
// //lint:... is reported as malformed so typos fail loudly instead of
// silently not suppressing.
var knownDirectives = map[string]bool{
	"hotpath":  true,
	"noescape": true, // perfgate escape-analysis contract; see cmd/perfgate
}

// WaiverUse records one //lint:ignore occurrence, so a run can report
// every waiver the tree carries alongside its findings.
type WaiverUse struct {
	Pos      token.Position
	Analyzer string
	Reason   string
}

// suppressions scans a package's comments for //lint: directives. It
// returns the ignore index, the waiver uses, and
// diagnostics (under the "lint" pseudo-analyzer) for malformed
// directives: a missing reason, an unknown analyzer name, or an unknown
// directive verb.
func suppressions(pkg *Package, known map[string]bool) (suppressionIndex, []WaiverUse, []Finding) {
	idx := make(suppressionIndex)
	var waivers []WaiverUse
	var diags []Finding
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				verb, arg, _ := strings.Cut(rest, " ")
				switch verb {
				case "ignore":
					name, reason, _ := strings.Cut(strings.TrimSpace(arg), " ")
					if name == "" || strings.TrimSpace(reason) == "" {
						diags = append(diags, Finding{Pos: pos, Analyzer: "lint",
							Msg: "malformed directive: want //lint:ignore <analyzer> <reason>"})
						continue
					}
					if !known[name] {
						diags = append(diags, Finding{Pos: pos, Analyzer: "lint",
							Msg: "//lint:ignore names unknown analyzer " + strconvQuote(name)})
						continue
					}
					waivers = append(waivers, WaiverUse{
						Pos: pos, Analyzer: name, Reason: strings.TrimSpace(reason),
					})
					if idx[pos.Filename] == nil {
						idx[pos.Filename] = make(map[int]map[string]bool)
					}
					if idx[pos.Filename][pos.Line] == nil {
						idx[pos.Filename][pos.Line] = make(map[string]bool)
					}
					idx[pos.Filename][pos.Line][name] = true
				default:
					if !knownDirectives[verb] {
						diags = append(diags, Finding{Pos: pos, Analyzer: "lint",
							Msg: "unknown directive //lint:" + verb})
					}
				}
			}
		}
	}
	return idx, waivers, diags
}

func strconvQuote(s string) string { return `"` + s + `"` }
