package analysis_test

// The fixture harness. Each fixture package under testdata/src/ carries
// `// want `regex`` comments naming the diagnostics expected on that line
// (`// want+1` for the following line, used when the flagged line is itself
// a directive comment). The harness runs every checker over all fixtures at
// once with a config that maps the rule scopes onto the fixture import
// paths, then requires an exact bidirectional match: every diagnostic must
// be wanted, every want must fire. Absence of a want comment is therefore a
// real assertion — the suppressed and idiomatic sites in the fixtures prove
// the negative cases.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hwgc/internal/analysis"
)

const fixtureBase = "hwgc/internal/analysis/testdata/src"

var fixtureDirs = []string{
	"./testdata/src/det",
	"./testdata/src/maporder",
	"./testdata/src/hotpath",
	"./testdata/src/wirecluster",
	"./testdata/src/wirereport",
}

// fixtureConfig maps the rule scoping onto the fixture packages the same
// way DefaultConfig maps it onto the real module.
func fixtureConfig() *analysis.Config {
	return &analysis.Config{
		DetPackages:           map[string]bool{fixtureBase + "/det": true},
		SerializationPackages: map[string]bool{fixtureBase + "/maporder": true},
		Wire: &analysis.WireConfig{
			ClusterPath:    fixtureBase + "/wirecluster",
			ReportPath:     fixtureBase + "/wirereport",
			SentinelPrefix: "Err",
			ToCodeFunc:     "codeOf",
			FromCodeFunc:   "sentinelOf",
			EventType:      "FlightEvent",
			KindField:      "Kind",
			KindProducers:  map[string]int{"transition": 1},
			SpanFunc:       "deriveSpans",
			SpanProducers:  map[string]int{"span": 1, "workerSpan": 0},
			SpanSwitchFunc: "spanBucket",
			OutcomeCall:    "attempt",
			OutcomeArg:     0,
		},
	}
}

func loadFixtures(t *testing.T) *analysis.Program {
	t.Helper()
	prog, err := analysis.Load(".", fixtureDirs)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	return prog
}

// expectation is one `// want` comment: a diagnostic matching re must be
// reported at file:line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var (
	wantRE  = regexp.MustCompile("// want(\\+1)?((?: `[^`]*`)+)")
	chunkRE = regexp.MustCompile("`([^`]*)`")
)

// collectWants scans every loaded fixture file for want comments.
func collectWants(t *testing.T, prog *analysis.Program) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range prog.Pkgs {
		for file, src := range pkg.Src {
			sc := bufio.NewScanner(bytes.NewReader(src))
			for line := 1; sc.Scan(); line++ {
				m := wantRE.FindStringSubmatch(sc.Text())
				if m == nil {
					continue
				}
				target := line
				if m[1] == "+1" {
					target = line + 1
				}
				for _, chunk := range chunkRE.FindAllStringSubmatch(m[2], -1) {
					re, err := regexp.Compile(chunk[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", file, line, chunk[1], err)
					}
					wants = append(wants, &expectation{file: file, line: target, re: re})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("no want comments found in fixtures")
	}
	return wants
}

// TestFixtures runs all checkers over the fixture packages and requires the
// diagnostics and the want comments to match exactly, both directions.
func TestFixtures(t *testing.T) {
	t.Parallel()
	prog := loadFixtures(t)
	wants := collectWants(t, prog)
	diags := analysis.Run(prog, fixtureConfig(), analysis.AllCheckers())

	for _, d := range diags {
		text := d.Rule + ": " + d.Msg
		found := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(text) {
				w.matched = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// TestSortedKeysFix applies the synthesized collect-sort-iterate rewrite
// for the builder-sink finding and checks the rewritten source.
func TestSortedKeysFix(t *testing.T) {
	t.Parallel()
	prog := loadFixtures(t)
	diags := analysis.Run(prog, fixtureConfig(), analysis.AllCheckers())

	var fix *analysis.Fix
	for _, d := range diags {
		if d.Rule == "maporder" && strings.Contains(d.Msg, "b.WriteString") {
			fix = d.Fix
		}
	}
	if fix == nil {
		t.Fatal("builder-sink maporder finding carries no fix")
	}
	src, err := os.ReadFile(fix.Path)
	if err != nil {
		t.Fatal(err)
	}
	out, applied, err := analysis.ApplyFixesToSource(src, []*analysis.Fix{fix})
	if err != nil {
		t.Fatalf("applying fix: %v", err)
	}
	if applied != 1 {
		t.Fatalf("applied %d fixes, want 1", applied)
	}
	text := string(out)
	for _, frag := range []string{
		"kKeys := make([]string, 0, len(m))",
		"kKeys = append(kKeys, k)",
		"sort.Strings(kKeys)",
		"for _, k := range kKeys {",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("fixed source is missing %q:\n%s", frag, text)
		}
	}
}

// TestDefaultConfigPackages keeps the production package lists honest: each
// configured import path must exist as a module directory.
func TestDefaultConfigPackages(t *testing.T) {
	t.Parallel()
	cfg := analysis.DefaultConfig()
	check := func(path string) {
		t.Helper()
		rel := strings.TrimPrefix(path, "hwgc/")
		if rel == path {
			t.Errorf("configured package %q is not under module hwgc", path)
			return
		}
		dir := filepath.Join("..", "..", filepath.FromSlash(rel))
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Errorf("configured package %q has no directory %s", path, dir)
		}
	}
	for p := range cfg.DetPackages {
		check(p)
	}
	for p := range cfg.SerializationPackages {
		check(p)
	}
	check(cfg.Wire.ClusterPath)
	check(cfg.Wire.ReportPath)
}

// TestRepoClean is the acceptance gate in test form: the analyzer must run
// clean over the whole module with the production config. Skipped under
// -short (it type-checks every package).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis skipped in -short mode")
	}
	t.Parallel()
	prog, err := analysis.Load(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := analysis.Run(prog, analysis.DefaultConfig(), analysis.AllCheckers())
	for _, d := range diags {
		t.Errorf("repo is not lint-clean: %s", d)
	}
	if len(diags) > 0 {
		t.Log("fix the findings or add an audited //hwgc:allow directive (see docs/LINTING.md)")
	}
}

// TestRuleNames pins the public rule list the -rules flag accepts.
func TestRuleNames(t *testing.T) {
	t.Parallel()
	got := fmt.Sprintf("%v", analysis.RuleNames())
	want := "[determinism maporder hotpath wire]"
	if got != want {
		t.Errorf("RuleNames() = %s, want %s", got, want)
	}
}
