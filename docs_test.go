package splitquant_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameRealCode fails when a document names a test, benchmark or
// fuzz target that no _test.go file in the repository defines, so the
// docs cannot keep pointing at code that was renamed or never written.
func TestDocsNameRealCode(t *testing.T) {
	defined := map[string]bool{}
	def := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git and the benchmark build directory
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range def.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	named := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, name := range named.FindAllString(line, -1) {
				if !defined[name] {
					t.Errorf("%s:%d names %s, which no _test.go file defines", doc, i+1, name)
				}
			}
		}
	}
}
