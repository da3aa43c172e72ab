// Command sae-hunt searches the scenario space for invariant violations.
//
// Usage:
//
//	sae-hunt [-seed S] [-runs N] [-scale F] [-corpus DIR] [-out DIR]
//	         [-shrink N] [-v]
//
// The hunter seeds its corpus from the scenario specs in -corpus
// (scenarios/*.yaml by default), executes every seed under the invariant
// audit plane, then mutates specs coverage-guided — chaos clause times,
// factors and targets, arrival mixes, conf knobs within the catalogue,
// cluster shape — looking for runs that break a structural invariant (slot
// or byte conservation, exactly-once shuffle, epoch monotonicity,
// assignment or failure-detector legality; see internal/invariant).
//
// Every violating spec is shrunk to a minimal reproducer and emitted via
// the canonical scenario writer, so the finding replays exactly with
// `sae-run -scenario <finding>.yaml -audit`. The whole hunt is a
// deterministic function of -seed, the corpus, and the options: same
// inputs, same findings, byte for byte.
//
// -runs 0 and -shrink 0 select the defaults, 16 and 24.
//
// Exit status is 1 when any violation was found, 2 for a flag value out of
// range (a negative -runs or -shrink; a negative, NaN or infinite -scale). A
// clean hunt over the committed corpus is the CI hunt-smoke gate: it proves
// every golden scenario passes all invariants and that a bounded mutation
// budget finds nothing.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"sae/internal/exp"
	"sae/internal/hunt"
	"sae/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sae-hunt:", err)
		os.Exit(exp.ExitCode(err))
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sae-hunt", flag.ContinueOnError)
	seed := fs.Int64("seed", 7, "mutation PRNG seed; the hunt is a deterministic function of it")
	runs := fs.Int("runs", 16, "scenario executions in the search loop (corpus seeds included; 0 selects the default)")
	shrink := fs.Int("shrink", 24, "extra executions allowed to minimize each finding (0 selects the default)")
	scale := fs.Float64("scale", 0.02, "cluster scale override for every spec (0 keeps spec scales)")
	corpusDir := fs.String("corpus", "scenarios", "directory of *.yaml scenario specs seeding the corpus")
	outDir := fs.String("out", "", "write each finding's shrunk reproducer YAML under this directory")
	verbose := fs.Bool("v", false, "log every run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 0 || *shrink < 0 {
		// The hunt reads anything below 1 as the default.
		return fmt.Errorf("%w: -runs %d, -shrink %d: want 0 (the default) or a positive count", exp.ErrBadFlag, *runs, *shrink)
	}
	if !(*scale >= 0) || math.IsInf(*scale, 1) {
		// The hunt reads a negative or NaN scale as 0, the specs' own; +Inf
		// reaches the file system as a negative size, and the hunt would
		// discard every faulted run and call itself clean.
		return fmt.Errorf("%w: -scale %v, want 0 (the specs' scales) or a positive finite factor", exp.ErrBadFlag, *scale)
	}

	paths, err := filepath.Glob(filepath.Join(*corpusDir, "*.yaml"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no *.yaml specs under %s", *corpusDir)
	}
	var corpus []*scenario.Spec
	for _, path := range paths {
		sp, err := scenario.Load(path)
		if err != nil {
			return err
		}
		corpus = append(corpus, sp)
	}

	opts := hunt.Options{
		Seed:       *seed,
		Runs:       *runs,
		ShrinkRuns: *shrink,
		Scale:      *scale,
		Corpus:     corpus,
	}
	if *verbose {
		opts.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "sae-hunt: "+format+"\n", args...)
		}
	}
	res, err := hunt.Run(opts)
	if err != nil {
		return err
	}

	fmt.Printf("sae-hunt: seed %d, %d run(s) (+%d shrinking), corpus %d -> %d, %d coverage signal(s)\n",
		*seed, res.Runs, res.ShrinkRuns, res.CorpusIn, res.CorpusOut, len(res.Coverage))
	if len(res.Findings) == 0 {
		fmt.Println("no invariant violations found")
		return nil
	}
	for i, f := range res.Findings {
		fmt.Printf("\nFINDING %d: %s (search run %d, %d shrink run(s), replayed from YAML: %v)\n",
			i+1, f.Rule, f.FoundAt, f.ShrinkRuns, f.Replayed)
		fmt.Printf("  %s\n", f.Violation)
		if *outDir != "" {
			name := fmt.Sprintf("hunt-%s.yaml", sanitize(f.Rule))
			path := filepath.Join(*outDir, name)
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(path, f.YAML, 0o644); err != nil {
				return err
			}
			fmt.Printf("  reproducer: %s (replay: sae-run -scenario %s -audit)\n", path, path)
		} else {
			fmt.Printf("  reproducer spec:\n%s", indent(string(f.YAML), "    "))
		}
	}
	return fmt.Errorf("%d invariant violation(s) found", len(res.Findings))
}

func sanitize(rule string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		default:
			return '-'
		}
	}, rule)
}

func indent(s, prefix string) string {
	lines := strings.SplitAfter(s, "\n")
	var b strings.Builder
	for _, ln := range lines {
		if ln == "" {
			continue
		}
		b.WriteString(prefix)
		b.WriteString(ln)
	}
	return b.String()
}
