package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"gqbe"
)

// answers is a ranked answer list in comparable form: entity names, the
// exact bits of each score and the search's stop reason.
type answers struct {
	Stopped string
	Names   [][]string
	Scores  []uint64
}

func fromResult(res *gqbe.Result) answers {
	a := answers{Stopped: res.Stats.Stopped}
	for _, x := range res.Answers {
		a.Names = append(a.Names, x.Entities)
		a.Scores = append(a.Scores, math.Float64bits(x.Score))
	}
	return a
}

// diff describes the first difference between a and want, or returns nil.
func (a answers) diff(want answers) error {
	if a.Stopped != want.Stopped {
		return fmt.Errorf("stopped %q, want %q", a.Stopped, want.Stopped)
	}
	if len(a.Names) != len(want.Names) {
		return fmt.Errorf("%d answers, want %d", len(a.Names), len(want.Names))
	}
	for i := range a.Names {
		if strings.Join(a.Names[i], "\t") != strings.Join(want.Names[i], "\t") || a.Scores[i] != want.Scores[i] {
			return fmt.Errorf("answer %d is %q score %v, want %q score %v", i+1,
				a.Names[i], math.Float64frombits(a.Scores[i]), want.Names[i], math.Float64frombits(want.Scores[i]))
		}
	}
	return nil
}

// digest is a short hash of the whole answer list.
func (a answers) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", a.Stopped)
	for i, n := range a.Names {
		fmt.Fprintf(h, "%s\t%016x\n", strings.Join(n, "\x1f"), a.Scores[i])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// goldenFile holds the recorded answers for graphSeed. Engine workloads
// keep full answer lists per query; serve-zipf keeps one digest per key
// (313 keys × 25 answers would be most of the file otherwise).
type goldenFile struct {
	GraphSeed int64                             `json:"graph_seed"`
	K         int                               `json:"k"`
	Queries   map[string]map[string]goldenQuery `json:"queries"`
	// Keys maps each serve-zipf key (entity names joined by tabs) to
	// goldenKey of its answers.
	Keys map[string]string `json:"serve_keys"`
}

type goldenQuery struct {
	Stopped string `json:"stopped"`
	// Answers holds one line per ranked answer: the entity names, then the
	// score's IEEE-754 bits in hex (exact, unlike a decimal rendering), all
	// joined by tabs.
	Answers []string `json:"answers"`
}

// goldenKey renders the stop reason, answer count and digest of a, the
// form serve-zipf keys are recorded in.
func goldenKey(a answers) string {
	return fmt.Sprintf("%s %d %s", a.Stopped, len(a.Names), a.digest())
}

//go:embed golden.json
var goldenJSON []byte

func (b *bench) loadGolden() error {
	if err := json.Unmarshal(goldenJSON, &b.golden); err != nil {
		return fmt.Errorf("decoding embedded golden.json: %w", err)
	}
	if b.cfg.updateGold {
		b.golden.GraphSeed, b.golden.K = graphSeed, topK
		if b.golden.Queries == nil {
			b.golden.Queries = map[string]map[string]goldenQuery{}
		}
		if b.cfg.workload == "serve-zipf" {
			b.golden.Keys = map[string]string{}
		} else {
			b.golden.Queries[b.cfg.workload] = map[string]goldenQuery{}
		}
		return nil
	}
	if b.golden.GraphSeed != graphSeed || b.golden.K != topK {
		return fmt.Errorf("golden.json is for graph seed %d, K=%d; re-record it with --update-golden", b.golden.GraphSeed, b.golden.K)
	}
	return nil
}

// checkQuery compares a query's answers with its golden, or records them
// when updating. A query without a golden fails the check.
func (b *bench) checkQuery(id string, a answers) error {
	lines := make([]string, len(a.Names))
	for i, n := range a.Names {
		lines[i] = strings.Join(n, "\t") + "\t" + strconv.FormatUint(a.Scores[i], 16)
	}
	if b.cfg.updateGold {
		b.golden.Queries[b.cfg.workload][id] = goldenQuery{Stopped: a.Stopped, Answers: lines}
		return nil
	}
	g, ok := b.golden.Queries[b.cfg.workload][id]
	if !ok {
		return fmt.Errorf("no golden recorded for %s; re-record with --update-golden once it succeeds", id)
	}
	if a.Stopped != g.Stopped {
		return fmt.Errorf("stopped %q, want %q", a.Stopped, g.Stopped)
	}
	if len(lines) != len(g.Answers) {
		return fmt.Errorf("%d answers, want %d", len(lines), len(g.Answers))
	}
	for i := range lines {
		if lines[i] != g.Answers[i] {
			return fmt.Errorf("answer %d is %q, want %q", i+1, lines[i], g.Answers[i])
		}
	}
	return nil
}

// checkKey compares a serve key's answers with its golden digest, or
// records them when updating. A key without a golden fails the check.
func (b *bench) checkKey(key string, a answers) error {
	got := goldenKey(a)
	if b.cfg.updateGold {
		b.golden.Keys[key] = got
		return nil
	}
	want, ok := b.golden.Keys[key]
	if !ok {
		return fmt.Errorf("no golden recorded for key %q; re-record with --update-golden", key)
	}
	if got != want {
		return fmt.Errorf("stop reason, answer count and digest %q, want %q", got, want)
	}
	return nil
}

func (b *bench) saveGolden() error {
	out, err := json.MarshalIndent(b.golden, "", " ")
	if err != nil {
		return fmt.Errorf("encoding goldens: %w", err)
	}
	if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing goldens: %w", err)
	}
	logf("goldens written to %s", goldenPath)
	return nil
}
