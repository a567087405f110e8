package vet

import (
	"go/ast"
	"go/token"
	"strings"
)

// A suppression is one //tmi3dvet:<directive> comment. The syntax is
//
//	//tmi3dvet:ordered <reason>
//
// attached to the flagged line itself (end-of-line) or the line directly
// above it. The reason string is mandatory: an annotation that cannot say why
// the site is safe is not a justification, so a bare directive is itself a
// diagnostic. A suppression that no longer matches any flaggable site is
// stale and also reported — annotations must not outlive the code they
// excuse.
type suppression struct {
	pos    token.Pos
	file   string
	line   int
	reason string
	used   bool
}

type suppressions struct {
	directive string
	audit     bool                            // this pass owns the bare/stale audit (directiveOwner)
	byLine    map[string]map[int]*suppression // filename -> line -> suppression
	all       []*suppression
}

// directiveOwner maps each suppression directive to the analyzer that audits
// the annotations themselves: only the owner reports bare directives (missing
// reason) and stale suppressions. Any analyzer may consult any directive —
// stagedeps honors //tmi3dvet:global at ambient-read sites while globalmut
// owns the audit — and the ownership table is what guarantees one annotation
// never double-reports across analyzers.
var directiveOwner = map[string]string{
	"ordered": "maporder",
	"nonkey":  "keycoverage",
	"nonseed": "keycoverage",
	"global":  "globalmut",
	"godisc":  "godisc",
	"nonwire": "wiresafe",
	"finite":  "wiresafe",
	"ctxdisc": "ctxdisc",
}

// cutDirective returns the payload of a //tmi3dvet:<directive> line comment,
// or ok=false when the comment is not that directive. This is the one
// directive-recognition path shared by suppression collection, struct-field
// annotations, and the stage anchor scanner.
func cutDirective(c *ast.Comment, directive string) (rest string, ok bool) {
	text, ok := strings.CutPrefix(c.Text, "//")
	if !ok {
		return "", false // block comments never carry directives
	}
	rest, ok = strings.CutPrefix(text, "tmi3dvet:"+directive)
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return "", false
	}
	return rest, true
}

// collectSuppressions gathers every //tmi3dvet:<directive> comment in the
// package. The bare-directive report (and, later, reportStale) fires only
// when the calling analyzer owns the directive per directiveOwner, so a
// consulting analyzer gets the annotations without duplicating the audit.
func collectSuppressions(p *Pass, directive string) *suppressions {
	audit := directiveOwner[directive] == p.check
	s := &suppressions{directive: directive, audit: audit, byLine: map[string]map[int]*suppression{}}
	for _, f := range p.Pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := cutDirective(c, directive)
				if !ok {
					continue
				}
				pos := p.Mod.Fset.Position(c.Pos())
				sup := &suppression{
					pos:    c.Pos(),
					file:   pos.Filename,
					line:   pos.Line,
					reason: strings.TrimSpace(rest),
				}
				if sup.reason == "" && audit {
					p.Reportf(c.Pos(), "//tmi3dvet:%s suppression without a reason — say why the site is safe", directive)
				}
				if s.byLine[sup.file] == nil {
					s.byLine[sup.file] = map[int]*suppression{}
				}
				s.byLine[sup.file][sup.line] = sup
				s.all = append(s.all, sup)
			}
		}
	}
	return s
}

// at returns the suppression covering the given node position: same line or
// the line directly above. A match is consumed (marked used) even when its
// reason is missing — the bare-directive diagnostic already fired, and a
// second "stale" report for the same comment would be noise. A reasonless
// match still suppresses the site diagnostic: the annotation pins the site,
// the missing reason is the one actionable finding.
func (s *suppressions) at(p *Pass, pos token.Pos) *suppression {
	where := p.Mod.Fset.Position(pos)
	lines := s.byLine[where.Filename]
	if lines == nil {
		return nil
	}
	if sup := lines[where.Line]; sup != nil {
		sup.used = true
		return sup
	}
	if sup := lines[where.Line-1]; sup != nil {
		sup.used = true
		return sup
	}
	return nil
}

// reportStale flags suppressions that matched no site this run; a no-op for
// passes that merely consult a directive another analyzer owns.
func (s *suppressions) reportStale(p *Pass, what string) {
	if !s.audit {
		return
	}
	for _, sup := range s.all {
		if !sup.used && sup.reason != "" {
			p.Reportf(sup.pos, "stale //tmi3dvet:%s suppression: no %s on this or the next line", s.directive, what)
		}
	}
}

// fieldSuppression finds a //tmi3dvet:<directive> comment in a struct
// field's doc or trailing comment group. Used by keycoverage, where the
// annotation attaches to a field declaration rather than a statement.
func fieldSuppression(p *Pass, directive string, field *ast.Field) (reason string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if rest, found := cutDirective(c, directive); found {
				return strings.TrimSpace(rest), c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}
