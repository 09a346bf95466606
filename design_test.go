package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designPath matches a repository path named in DESIGN.md.
var designPath = regexp.MustCompile("`((?:internal|cmd|examples)/[A-Za-z0-9_./-]*[A-Za-z0-9_])`")

// TestDesignInventory holds DESIGN.md §3 to the tree in both directions:
// every internal/, cmd/ or examples/ path it names exists, and every
// directory there that holds Go files has a row of its own.
func TestDesignInventory(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "\n## 3.")
	end := strings.Index(doc, "\n## 4.")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §3 followed by §4")
	}
	section := doc[start:end]

	for _, m := range designPath.FindAllStringSubmatch(section, -1) {
		if _, err := os.Stat(m[1]); err != nil {
			t.Errorf("DESIGN.md §3 names %s, which does not exist", m[1])
		}
	}

	rows := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) > 2 && strings.HasPrefix(line, "|") {
			rows[strings.Trim(strings.TrimSpace(cells[1]), "`")] = true
		}
	}
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			if dir := filepath.ToSlash(filepath.Dir(path)); !rows[dir] {
				rows[dir] = true // report each directory once
				t.Errorf("%s holds Go files but has no row in DESIGN.md §3", dir)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
