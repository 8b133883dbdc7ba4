package lint

import (
	"go/token"
	"regexp"
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
	"phase":      true, // solver phase contracts; see phaseorder.go
	"coordspace": true, // frame-conversion marker; see coordspace.go
	"noalias":    true, // slice-parameter aliasing contract; see aliasguard.go
	"shape":      true, // length-relation contract; see shapecheck.go
	"precision":  true, // storage/accumulation precision contract; see precguard.go
}

// WaiverUse records one //lint:ignore occurrence, so a run can report
// every waiver the tree carries alongside its findings.
type WaiverUse struct {
	Pos      token.Position
	Analyzer string
	Reason   string
}

// phaseNameRe constrains phase names in //lint:phase directives: short
// lowercase kebab-case identifiers ("assembled", "bc-applied").
var phaseNameRe = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)

// suppressions scans a package's comments for //lint: directives. It
// returns the ignore index, the waiver uses, and
// diagnostics (under the "lint" pseudo-analyzer) for malformed
// directives: a missing reason, an unknown analyzer name, an unknown
// directive verb, or bad //lint:phase / //lint:coordspace syntax.
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
				case "phase":
					diags = append(diags, checkPhaseSyntax(pos, arg)...)
				case "coordspace":
					if strings.TrimSpace(arg) != "conversion" {
						diags = append(diags, Finding{Pos: pos, Analyzer: "lint",
							Msg: "malformed directive: want //lint:coordspace conversion"})
					}
				case "noalias":
					diags = append(diags, checkNoaliasSyntax(pos, arg)...)
				case "shape":
					diags = append(diags, checkShapeSyntax(pos, arg)...)
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

// checkPhaseSyntax validates the argument list of a //lint:phase
// directive: space-separated key=value fields with keys from
// requires/provides/forbids and comma-separated kebab-case phase names.
func checkPhaseSyntax(pos token.Position, arg string) []Finding {
	fields := strings.Fields(arg)
	if len(fields) == 0 {
		return []Finding{{Pos: pos, Analyzer: "lint",
			Msg: "malformed directive: want //lint:phase requires=...|provides=...|forbids=..."}}
	}
	var diags []Finding
	for _, field := range fields {
		key, val, hasEq := strings.Cut(field, "=")
		switch {
		case !hasEq || (key != "requires" && key != "provides" && key != "forbids"):
			diags = append(diags, Finding{Pos: pos, Analyzer: "lint",
				Msg: "//lint:phase field " + strconvQuote(field) +
					": want requires=, provides=, or forbids="})
			continue
		case splitPhases(val) == nil:
			diags = append(diags, Finding{Pos: pos, Analyzer: "lint",
				Msg: "//lint:phase " + key + "= lists no phases"})
			continue
		}
		for _, p := range splitPhases(val) {
			if !phaseNameRe.MatchString(p) {
				diags = append(diags, Finding{Pos: pos, Analyzer: "lint",
					Msg: "//lint:phase name " + strconvQuote(p) + " is not lowercase kebab-case"})
			}
		}
	}
	return diags
}

// checkNoaliasSyntax validates a //lint:noalias argument list:
// comma-separated identifiers, at least two. (Whether the names match
// slice parameters is aliasguard's semantic check.)
func checkNoaliasSyntax(pos token.Position, arg string) []Finding {
	var diags []Finding
	names := strings.Split(strings.TrimSpace(arg), ",")
	count := 0
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		count++
		if !identLike(n) {
			diags = append(diags, Finding{Pos: pos, Analyzer: "lint",
				Msg: "//lint:noalias name " + strconvQuote(n) + " is not an identifier"})
		}
	}
	if count < 2 {
		diags = append(diags, Finding{Pos: pos, Analyzer: "lint",
			Msg: "malformed directive: want //lint:noalias <param>,<param>[,...]"})
	}
	return diags
}

// checkShapeSyntax validates a //lint:shape argument: either the single
// word "validator" or space-separated len/value relations joined by ==.
// (Whether the names match fields or parameters is shapecheck's
// semantic check.)
func checkShapeSyntax(pos token.Position, arg string) []Finding {
	arg = strings.TrimSpace(arg)
	if arg == "validator" {
		return nil
	}
	fields := strings.Fields(arg)
	if len(fields) == 0 {
		return []Finding{{Pos: pos, Analyzer: "lint",
			Msg: "malformed directive: want //lint:shape validator | <relation>..."}}
	}
	var diags []Finding
	for _, field := range fields {
		if _, ok := parseShapeRel(field); !ok {
			diags = append(diags, Finding{Pos: pos, Analyzer: "lint",
				Msg: "//lint:shape relation " + strconvQuote(field) +
					" does not parse: want len(A)==len(B), len(A)==N+1, or len(A)==A[N] forms"})
		}
	}
	return diags
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

func strconvQuote(s string) string { return `"` + s + `"` }
