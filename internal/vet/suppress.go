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
	byLine    map[string]map[int]*suppression // filename -> line -> suppression
	all       []*suppression
}

// cutDirective returns the payload of a //tmi3dvet:<directive> line comment,
// or ok=false when the comment is not that directive.
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
// package, reporting each one that gives no reason.
func collectSuppressions(p *Pass, directive string) *suppressions {
	s := &suppressions{directive: directive, byLine: map[string]map[int]*suppression{}}
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
				if sup.reason == "" {
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

// reportStale flags suppressions that matched no site this run.
func (s *suppressions) reportStale(p *Pass, what string) {
	for _, sup := range s.all {
		if !sup.used && sup.reason != "" {
			p.Reportf(sup.pos, "stale //tmi3dvet:%s suppression: no %s on this or the next line", s.directive, what)
		}
	}
}
