package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixtures under testdata/src form their own module ("fixtures") so the
// parent ./... patterns never build them; each analyzer's seeded violations
// live in one subdirectory. Expectations are analysistest-style comments on
// the offending line:
//
//	// want `regex` `another regex`
//
// Every want must be matched by a diagnostic on its line and every
// diagnostic must be matched by a want.

var backtickRe = regexp.MustCompile("`([^`]+)`")

// runFixture loads testdata/src/<dir>, runs the analyzer, and diffs its
// diagnostics against the want comments. It returns the //lint:ignore
// suppression count so fixtures can also prove the escape hatch.
func runFixture(t *testing.T, dir string, a *Analyzer) int {
	t.Helper()
	prog, err := Load(filepath.Join("testdata", "src"), "./"+dir+"/...")
	if err != nil {
		t.Fatal(err)
	}
	diags, suppressed, err := prog.Run([]*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		file string
		line int
	}
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[key][]*want)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					i := strings.Index(c.Text, "want ")
					if i < 0 {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					for _, m := range backtickRe.FindAllStringSubmatch(c.Text[i:], -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						k := key{pos.Filename, pos.Line}
						wants[k] = append(wants[k], &want{re: re})
					}
				}
			}
		}
	}

	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		ok := false
		for _, w := range wants[k] {
			if w.re.MatchString(d.Message) {
				w.matched = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no %s diagnostic matched `%s`", k.file, k.line, a.Name, w.re)
			}
		}
	}
	return suppressed
}

func TestLockCheckFixture(t *testing.T) {
	runFixture(t, "lockcheck", LockCheck())
}

func TestSentinelErrFixture(t *testing.T) {
	runFixture(t, "sentinelerr", SentinelErr(DefaultSentinelScope, "server", "StatusFor"))
}

func TestHotPathAllocFixture(t *testing.T) {
	runFixture(t, "hotpathalloc", HotPathAlloc())
}

func TestWALOrderFixture(t *testing.T) {
	runFixture(t, "walorder", WALOrder(DefaultWALOrderScope))
}

func TestObsRegFixture(t *testing.T) {
	// The obsreg fixture also carries one //lint:ignore'd violation,
	// proving the suppression path end to end.
	if suppressed := runFixture(t, "obsreg", ObsReg()); suppressed != 1 {
		t.Errorf("suppressed = %d, want 1 (the //lint:ignore'd legacy metric)", suppressed)
	}
}

func TestDeadAPIFixture(t *testing.T) {
	a := DeadAPI("deadapi/bench")
	runFixture(t, "deadapi", a)
	// A run over one package reports exactly what the full run reports
	// there: uses still come from the whole module and its second module.
	runFixture(t, "deadapi/internal/lib", a)
}
