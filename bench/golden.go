package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/followsun"
)

// goldenRuns is how many negotiations, from the first measured one, a
// golden digest sums.
const goldenRuns = 20

//go:embed golden.json
var goldenJSON []byte

// sumDigests folds the first goldenRuns digests into one.
func sumDigests(digests []ringDigest) ringDigest {
	var sum ringDigest
	for _, d := range digests[:goldenRuns] {
		sum.FinalCost += d.FinalCost
		sum.SolverNodes += d.SolverNodes
		sum.Solves += d.Solves
		sum.Rounds += d.Rounds
		sum.Msgs += d.Msgs
		sum.Bytes += d.Bytes
	}
	return sum
}

// checkGolden compares the run's first negotiations with the digest
// bench/golden.json pins for the seed. Seeds without an entry, and runs too
// short to cover it, pass: the Workers=1 recheck still covers them.
func checkGolden(seed int64, digests []ringDigest) error {
	golden := map[string]ringDigest{}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want, ok := golden[strconv.FormatInt(seed, 10)]
	if !ok || len(digests) < goldenRuns {
		return nil
	}
	if got := sumDigests(digests); got != want {
		return fmt.Errorf("followsun-ring: seed %d: first %d negotiations sum to %+v, golden.json has %+v (run with -update-golden if the change is meant)",
			seed, goldenRuns, got, want)
	}
	return nil
}

// updateGolden recomputes the digests of the seeds golden.json holds.
func updateGolden(benchDir string) error {
	golden := map[string]ringDigest{}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	for key := range golden {
		seed, err := strconv.ParseInt(key, 10, 64)
		if err != nil {
			return fmt.Errorf("golden.json: seed %q: %w", key, err)
		}
		w := &ringWorkload{seed: seed}
		digests := make([]ringDigest, goldenRuns)
		for i := range digests {
			res, err := followsun.RunCluster(w.params(i), w.options(2))
			if err != nil {
				return err
			}
			digests[i] = digestOf(res)
		}
		golden[key] = sumDigests(digests)
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(benchDir, "golden.json"), append(data, '\n'), 0o644)
}
