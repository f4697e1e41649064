// Package hotfix is the hotalloc fixture: //cblint:hotpath functions run
// once per corpus message, so allocations into long-lived state — appends
// into captured slices, Sprintf in loops, identity-keyed map growth — scale
// with the corpus and are findings. In any function, a Replacer or regexp
// built from constants is rebuilt per call and is a finding too.
package hotfix

import (
	"fmt"
	"regexp"
	"strings"
)

// Msg is a per-message record carrying identity fields.
type Msg struct {
	ID   string
	Host string
}

// Sink accumulates across the whole run.
type Sink struct {
	trail []string
	seen  map[string]bool
	hosts map[string]int
}

// Record is the hot path; all three rules fire.
//
//cblint:hotpath
func (s *Sink) Record(m *Msg) {
	s.trail = append(s.trail, m.Host) // want "outlives the call"
	for i := 0; i < 4; i++ {
		_ = fmt.Sprintf("step-%d", i) // want "allocates per iteration"
	}
	s.seen[m.ID] = true // want "per-message identity"
	s.hosts[m.Host]++   // bounded-domain key: clean
}

// RecordBounded shows the compliant shape plus a sanctioned identity site.
//
//cblint:hotpath
func (s *Sink) RecordBounded(m *Msg) {
	parts := make([]string, 0, 2)
	parts = append(parts, m.Host) // body-local slice: clean
	s.hosts[parts[0]]++
	//cblint:ignore hotalloc fixture sanctions a reviewed identity-keyed write
	s.seen[m.ID] = true
}

// Cold is not annotated, so nothing in it is checked.
func (s *Sink) Cold(m *Msg) {
	s.trail = append(s.trail, m.ID)
}

// Package-level values are built once: clean.
var (
	escaper = strings.NewReplacer("&", "&amp;")
	digits  = regexp.MustCompile(`[0-9]+`)
)

// Escape rebuilds a constant Replacer on every call.
func Escape(s string) string {
	return strings.NewReplacer("<", "&lt;", ">", "&gt;").Replace(s) // want "strings.NewReplacer with constant arguments"
}

// patternPrefix is a named constant: a constant expression all the same.
const patternPrefix = "^id-"

// Matchers builds each constant regexp form per call, one inside a
// function literal.
func Matchers() []*regexp.Regexp {
	a := regexp.MustCompile(patternPrefix + `[a-z]+`) // want "regexp.MustCompile with constant"
	b, _ := regexp.Compile(`x+`)                      // want "regexp.Compile with constant"
	c := regexp.MustCompilePOSIX(`y+`)                // want "regexp.MustCompilePOSIX with constant"
	build := func() *regexp.Regexp {
		d, _ := regexp.CompilePOSIX(`z+`) // want "regexp.CompilePOSIX with constant"
		return d
	}
	return []*regexp.Regexp{a, b, c, build(), digits}
}

// Dynamic compiles a pattern chosen at run time, the way a script's RegExp
// builtin does: clean.
func Dynamic(pattern, flags string) (*regexp.Regexp, *strings.Replacer) {
	re, err := regexp.Compile("(?" + flags + ")" + pattern)
	if err != nil {
		return nil, nil
	}
	pairs := []string{"a", "b"}
	return re, strings.NewReplacer(pairs...)
}

// Uses keeps the package-level values referenced.
func Uses(s string) string { return escaper.Replace(s) }
