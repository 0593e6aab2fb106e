package ocep_test

import (
	"bufio"
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDocsResolve: every Go source file, source position (file.go:line),
// test and fuzz target that README.md and docs/ name exists, so the
// prose cannot drift from the code it cites unnoticed. A file is named by
// its base name or any trailing part of its path. ROADMAP.md is held to
// its file, test and fuzz names only: its positions are dated evidence,
// true of the commit that recorded them.
func TestDocsResolve(t *testing.T) {
	lines := map[string][]int{} // path suffix → line counts of the files it names
	funcs := map[string]bool{}  // Test… and Fuzz… functions
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git, build trees
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := bytes.Count(src, []byte("\n"))
		parts := strings.Split(filepath.ToSlash(path), "/")
		for i := range parts {
			suffix := strings.Join(parts[i:], "/")
			lines[suffix] = append(lines[suffix], n)
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range decl.FindAllSubmatch(src, -1) {
				funcs[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	fileRef := regexp.MustCompile(`\b([\w/.-]*\w\.go)(?::(\d+))?\b`)
	nameRef := regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*`)
	for _, doc := range append(docs, "README.md", "ROADMAP.md") {
		positions := doc != "ROADMAP.md"
		f, err := os.Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for ln := 1; sc.Scan(); ln++ {
			for _, m := range fileRef.FindAllStringSubmatch(sc.Text(), -1) {
				if strings.HasPrefix(m[1], "_") {
					continue // a glob's tail: *_test.go
				}
				counts, ok := lines[m[1]]
				if !ok {
					t.Errorf("%s:%d names %s, which does not exist", doc, ln, m[1])
					continue
				}
				if m[2] == "" || !positions {
					continue
				}
				want, _ := strconv.Atoi(m[2])
				if !slices.ContainsFunc(counts, func(n int) bool { return n >= want }) {
					t.Errorf("%s:%d names %s:%s, past the end of every %s", doc, ln, m[1], m[2], m[1])
				}
			}
			for _, name := range nameRef.FindAllString(sc.Text(), -1) {
				if !funcs[name] {
					t.Errorf("%s:%d names %s, which no test file declares", doc, ln, name)
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
}
