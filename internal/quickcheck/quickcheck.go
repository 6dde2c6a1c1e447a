// Package quickcheck gives testing/quick property tests an explicit,
// seeded random source, so every run draws the same cases and a failure
// names the seed that reproduces it.
package quickcheck

import (
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
)

// Config returns a quick.Config with MaxCount maxCount (0 keeps quick's
// default) whose Rand is seeded from the test's name. The seed is logged
// when the test fails.
func Config(t testing.TB, maxCount int) *quick.Config {
	h := fnv.New64a()
	h.Write([]byte(t.Name()))
	seed := int64(h.Sum64())
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("quick.Check seed %d", seed)
		}
	})
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}
