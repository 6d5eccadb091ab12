package lint

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the expectation patterns of one fixture line. Several
// quoted patterns may follow a single "want".
var wantRe = regexp.MustCompile(`// want ((?:"[^"]+"\s*)+)`)

// collectWants parses the `// want "pattern"` expectations of every .go file
// under dir, keyed by absolute file path and line.
func collectWants(t *testing.T, dir string) map[string]map[int][]string {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string]map[int][]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(abs, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, p := range regexp.MustCompile(`"([^"]+)"`).FindAllStringSubmatch(m[1], -1) {
				if wants[path] == nil {
					wants[path] = map[int][]string{}
				}
				wants[path][line] = append(wants[path][line], p[1])
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// TestAnalyzersGolden runs each analyzer over its fixture package under
// testdata/src/<name> and checks the findings against the `// want`
// expectations: every want must be matched by a finding on its line, every
// finding must be covered by a want, and the fixture's suppression case must
// register in the suppressed count.
func TestAnalyzersGolden(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", a.Name)
			res, err := RunCtx(context.Background(), Config{Dir: dir, Checks: a.Name})
			if err != nil {
				t.Fatal(err)
			}
			if res.Packages != 1 {
				t.Fatalf("analyzed %d packages, want 1", res.Packages)
			}
			wants := collectWants(t, dir)

			matched := map[string]map[int][]bool{}
			for path, byLine := range wants {
				matched[path] = map[int][]bool{}
				for line, ps := range byLine {
					matched[path][line] = make([]bool, len(ps))
				}
			}
			for _, d := range res.Diags {
				ps := wants[d.File][d.Line]
				hit := false
				for i, p := range ps {
					if matched[d.File][d.Line][i] {
						continue
					}
					ok, err := regexp.MatchString(p, d.Message)
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", p, err)
					}
					if ok {
						matched[d.File][d.Line][i] = true
						hit = true
						break
					}
				}
				if !hit {
					t.Errorf("unexpected finding: %s", d)
				}
			}
			for path, byLine := range matched {
				for line, hits := range byLine {
					for i, hit := range hits {
						if !hit {
							t.Errorf("%s:%d: want %q, no matching finding", path, line, wants[path][line][i])
						}
					}
				}
			}
			if res.Suppressed == 0 {
				t.Errorf("fixture has a //securelint:ignore case but nothing was suppressed")
			}
		})
	}
}

// TestByName exercises check-subset resolution.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(Analyzers()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v", len(all), err)
	}
	two, err := ByName("ceildiv, floateq")
	if err != nil || len(two) != 2 || two[0].Name != "ceildiv" || two[1].Name != "floateq" {
		t.Fatalf("ByName subset = %v, err %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) did not fail")
	}
}

// TestIgnoreDirectiveScope pins the directive's reach: its own line and the
// line directly below, for the named check only.
func TestIgnoreDirectiveScope(t *testing.T) {
	dir := t.TempDir()
	src := `package scratch

func a(x, y int) int {
	//securelint:ignore ceildiv scoped to the next line only
	p := (x + y - 1) / y
	q := (x + y - 1) / y
	return p + q
}

func b(x, y int) int {
	//securelint:ignore overflowmul wrong check name, ceildiv still fires
	return (x + y - 1) / y
}
`
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(context.Background(), Config{Dir: dir, Checks: "ceildiv"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) != 2 {
		t.Fatalf("got %d findings, want 2 (line after the directive suppressed, rest kept):\n%s",
			len(res.Diags), diagsString(res.Diags))
	}
	if res.Suppressed != 1 {
		t.Fatalf("suppressed = %d, want 1", res.Suppressed)
	}
	if res.Diags[0].Line != 6 || res.Diags[1].Line != 12 {
		t.Fatalf("finding lines = %d, %d; want 6 and 12", res.Diags[0].Line, res.Diags[1].Line)
	}
}

// TestIgnoreDirectiveValidation pins the directive parser's strictness: an
// unknown check name or a missing reason is a finding of its own (check
// "ignore") and suppresses nothing.
func TestIgnoreDirectiveValidation(t *testing.T) {
	dir := t.TempDir()
	src := `package scratch

func a(x, y int) int {
	//securelint:ignore ceildvi typo'd check name suppresses nothing
	return (x + y - 1) / y
}

func b(x, y int) int {
	//securelint:ignore ceildiv
	return (x + y - 1) / y
}
`
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(context.Background(), Config{Dir: dir, Checks: "ceildiv"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Suppressed != 0 {
		t.Fatalf("suppressed = %d, want 0 (malformed directives must not suppress)", res.Suppressed)
	}
	var ignoreDiags, ceildivDiags int
	for _, d := range res.Diags {
		switch d.Check {
		case "ignore":
			ignoreDiags++
		case "ceildiv":
			ceildivDiags++
		}
	}
	if ignoreDiags != 2 {
		t.Fatalf("got %d directive findings, want 2 (unknown check, missing reason):\n%s",
			ignoreDiags, diagsString(res.Diags))
	}
	if ceildivDiags != 2 {
		t.Fatalf("got %d ceildiv findings, want 2 (nothing suppressed):\n%s",
			ceildivDiags, diagsString(res.Diags))
	}
	for _, want := range []string{"unknown check \"ceildvi\"", "has no reason"} {
		if !strings.Contains(diagsString(res.Diags), want) {
			t.Errorf("diagnostics missing %q:\n%s", want, diagsString(res.Diags))
		}
	}
}

func diagsString(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintln(&b, d)
	}
	return b.String()
}
