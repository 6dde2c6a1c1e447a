package quickcheck

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
)

// logTB records what Config logs.
type logTB struct {
	testing.TB
	logs []string
}

func (l *logTB) Logf(format string, args ...any) {
	l.logs = append(l.logs, fmt.Sprintf(format, args...))
}

func firstDraw(seed int64) int64 { return rand.New(rand.NewSource(seed)).Int63() }

func TestSeedFromTestName(t *testing.T) {
	t.Setenv("QUICKCHECK_SEED", "")
	t.Setenv("QUICKCHECK_SCALE", "")
	h := fnv.New64a()
	h.Write([]byte(t.Name()))
	cfg := Config(t, 10)
	if got, want := cfg.Rand.Int63(), firstDraw(int64(h.Sum64())); got != want {
		t.Errorf("first draw %d, want %d from the name-derived seed", got, want)
	}
	if cfg.MaxCount != 10 {
		t.Errorf("MaxCount = %d, want 10", cfg.MaxCount)
	}
}

func TestSeedOverride(t *testing.T) {
	t.Setenv("QUICKCHECK_SEED", "42")
	if got, want := Config(t, 0).Rand.Int63(), firstDraw(42); got != want {
		t.Errorf("first draw %d, want %d from seed 42", got, want)
	}
}

func TestRandomSeedIsLoggedAndReplays(t *testing.T) {
	t.Setenv("QUICKCHECK_SEED", "random")
	l := &logTB{TB: t}
	draw := Config(l, 0).Rand.Int63()
	if len(l.logs) != 1 || !strings.HasPrefix(l.logs[0], "quick.Check seed ") {
		t.Fatalf("logs = %q, want one seed line", l.logs)
	}
	var seed int64
	if _, err := fmt.Sscanf(l.logs[0], "quick.Check seed %d", &seed); err != nil {
		t.Fatal(err)
	}
	t.Setenv("QUICKCHECK_SEED", fmt.Sprint(seed))
	if replay := Config(t, 0).Rand.Int63(); replay != draw {
		t.Errorf("QUICKCHECK_SEED=%d draws %d, the random run drew %d", seed, replay, draw)
	}
}

func TestScaleMultipliesCount(t *testing.T) {
	t.Setenv("QUICKCHECK_SCALE", "3")
	if got := Config(t, 40).MaxCount; got != 120 {
		t.Errorf("MaxCount = %d, want 3×40", got)
	}
	cfg := Config(t, 0)
	if cfg.MaxCount != 0 || cfg.MaxCountScale != 3 {
		t.Errorf("default count: MaxCount %d, MaxCountScale %v, want 0 and 3", cfg.MaxCount, cfg.MaxCountScale)
	}
}
