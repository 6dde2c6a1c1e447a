// Package quickcheck gives testing/quick property tests an explicit,
// seeded random source, so every run draws the same cases and a failure
// names the seed that reproduces it.
//
// Two test-only environment variables widen a run into a soak:
//
//	QUICKCHECK_SEED=random  draw a fresh seed per test and log it
//	QUICKCHECK_SEED=<int>   seed every test with <int> (replays a logged seed)
//	QUICKCHECK_SCALE=<n>    multiply every test's number of cases by n
//
// Unset, each test is seeded from its name, so tier-1 is deterministic.
package quickcheck

import (
	"hash/fnv"
	"math/rand"
	randv2 "math/rand/v2"
	"os"
	"strconv"
	"testing"
	"testing/quick"
)

// Config returns a quick.Config with MaxCount maxCount (0 keeps quick's
// default) whose Rand is seeded from the test's name, or as
// QUICKCHECK_SEED says. The seed is logged when the test fails, and
// always when it was drawn at random.
func Config(t testing.TB, maxCount int) *quick.Config {
	seed, drawn := seedFor(t)
	if drawn {
		t.Logf("quick.Check seed %d (QUICKCHECK_SEED=%d replays it)", seed, seed)
	} else {
		t.Cleanup(func() {
			if t.Failed() {
				t.Logf("quick.Check seed %d", seed)
			}
		})
	}
	cfg := &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
	if scale := scaleFor(t); scale > 1 {
		if maxCount == 0 {
			cfg.MaxCountScale = float64(scale)
		} else {
			cfg.MaxCount = maxCount * scale
		}
	}
	return cfg
}

// seedFor returns the test's seed and whether it was drawn at random.
func seedFor(t testing.TB) (int64, bool) {
	switch v := os.Getenv("QUICKCHECK_SEED"); v {
	case "":
		h := fnv.New64a()
		h.Write([]byte(t.Name()))
		return int64(h.Sum64()), false
	case "random":
		return randv2.Int64(), true
	default:
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("QUICKCHECK_SEED=%q: want random or an integer", v)
		}
		return seed, false
	}
}

// scaleFor returns the case-count multiplier (1 when unset).
func scaleFor(t testing.TB) int {
	v := os.Getenv("QUICKCHECK_SCALE")
	if v == "" {
		return 1
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		t.Fatalf("QUICKCHECK_SCALE=%q: want a positive integer", v)
	}
	return n
}
