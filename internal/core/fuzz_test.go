package core_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ocep/internal/core"
	"ocep/internal/event/eventtest"
	"ocep/internal/pattern"
)

// FuzzCompiledVsInterpreted fuzzes the pattern compiler's execution
// form: for any source that parses and compiles, a workload derived
// from the fuzzed seed is replayed through a compiled matcher and the
// interpreted oracle, and the two must agree on matches (including
// truncation flags) and on the full Stats block. The pattern corpus is
// seeded from the shipped example patterns plus the constructs the
// grammar documents, so mutations start from realistic shapes; the
// workload types are drawn from the compiled program's own exact-typed
// leaves (so triggers actually fire) padded with types no leaf
// subscribes to (so the skip path is exercised too).
func FuzzCompiledVsInterpreted(f *testing.F) {
	seeds := []string{
		`A := [*, a, *]; B := [*, b, *]; pattern := A -> B;`,
		`A := [*, a, *]; B := [*, b, *]; pattern := (A || B) && (A ~ B);`,
		`A := [*, a, *]; A $x; A $y; pattern := $x lim-> $y;`,
		`A := [$P, a, $T]; B := [$P, b, $T]; pattern := A -> B;`,
		`A := [*, *, *]; B := [*, b, *]; pattern := A <-> B;`,
	}
	for _, s := range seeds {
		f.Add(s, uint64(1))
		f.Add(s, uint64(42))
	}
	pats, err := filepath.Glob(filepath.Join("..", "..", "examples", "patterns", "*.pat"))
	if err != nil {
		f.Fatal(err)
	}
	if len(pats) == 0 {
		f.Fatal("no example patterns found; corpus seeding is broken")
	}
	for _, p := range pats {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), uint64(7))
	}
	f.Fuzz(func(t *testing.T, src string, wseed uint64) {
		file, err := pattern.Parse(src)
		if err != nil {
			return
		}
		pat, err := pattern.Compile(file)
		if err != nil {
			return
		}
		prog := pattern.NewProgram(pat)
		// Workload types: the pattern's own exact leaf types (triggers
		// fire) plus padding types nothing subscribes to (skips happen),
		// capped so domains stay dense enough to search.
		types := prog.ExactTypes()
		if len(types) > 4 {
			types = types[:4]
		}
		types = append(types, "zz0", "zz1")
		rng := rand.New(rand.NewSource(int64(wseed)))
		st, evs := eventtest.Random(rng, eventtest.RandomConfig{
			Traces:   2 + rng.Intn(3),
			Events:   40,
			SendProb: 0.3,
			RecvProb: 0.3,
			Types:    types,
		})
		// A modest budget bounds worst-case search on adversarial
		// patterns while still letting truncation flags differ if the
		// two paths ever diverged.
		opts := core.Options{RepresentativeOnly: true, MaxTriggerSteps: 2_000}
		cm, cMatches := feedAll(t, pat, st, evs, opts)
		im, iMatches := feedAllInterpreted(t, pat, st, evs, opts)
		ck, ik := matchMultiset(cMatches), matchMultiset(iMatches)
		if len(ck) != len(ik) {
			t.Fatalf("distinct matches differ: compiled %d, interpreted %d\npattern:\n%s", len(ck), len(ik), src)
		}
		for k, n := range ik {
			if ck[k] != n {
				t.Fatalf("match %s reported %d times compiled, %d interpreted\npattern:\n%s", k, ck[k], n, src)
			}
		}
		if cs, is := cm.Stats(), im.Stats(); cs != is {
			t.Fatalf("stats diverged:\ncompiled    %+v\ninterpreted %+v\npattern:\n%s", cs, is, src)
		}
	})
}
