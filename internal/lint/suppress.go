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
	"hotpath":    true,
	"noescape":   true, // perfgate escape-analysis contract; see cmd/perfgate
	"coordspace": true, // frame-conversion marker; see coordspace.go
	"precision":  true, // storage/accumulation precision contract; see precguard.go
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
// directives: a missing reason, an unknown analyzer name, an unknown
// directive verb, or bad //lint:coordspace / //lint:precision syntax.
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
				case "coordspace":
					if strings.TrimSpace(arg) != "conversion" {
						diags = append(diags, Finding{Pos: pos, Analyzer: "lint",
							Msg: "malformed directive: want //lint:coordspace conversion"})
					}
				case "precision":
					diags = append(diags, checkPrecisionSyntax(pos, arg)...)
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

// checkPrecisionSyntax validates a //lint:precision argument list:
// an optional "convert" marker and/or storage=/accum= fields with
// comma-separated identifiers, at least one token in total. (Whether
// the names match fields, parameters, or "result", and whether their
// types fit the class, is precguard's semantic check.)
func checkPrecisionSyntax(pos token.Position, arg string) []Finding {
	fields := strings.Fields(arg)
	if len(fields) == 0 {
		return []Finding{{Pos: pos, Analyzer: "lint",
			Msg: "malformed directive: want //lint:precision [convert] [storage=<name>,...] [accum=<name>,...]"}}
	}
	var diags []Finding
	for _, field := range fields {
		if field == "convert" {
			continue
		}
		key, val, hasEq := strings.Cut(field, "=")
		if !hasEq || (key != "storage" && key != "accum") {
			diags = append(diags, Finding{Pos: pos, Analyzer: "lint",
				Msg: "//lint:precision field " + strconvQuote(field) +
					": want convert, storage=, or accum="})
			continue
		}
		count := 0
		for _, n := range strings.Split(val, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			count++
			if !identLike(n) {
				diags = append(diags, Finding{Pos: pos, Analyzer: "lint",
					Msg: "//lint:precision name " + strconvQuote(n) + " is not an identifier"})
			}
		}
		if count == 0 {
			diags = append(diags, Finding{Pos: pos, Analyzer: "lint",
				Msg: "//lint:precision " + key + "= lists no names"})
		}
	}
	return diags
}

// identLike reports whether s is spelled like a Go identifier (ASCII
// letters, digits and underscore, not starting with a digit), the
// form every name in a directive argument must have.
func identLike(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func strconvQuote(s string) string { return `"` + s + `"` }
