// Package coin provides the common-coin primitive used to elect wave
// leaders (paper §4.2; the asymmetric common coin of Alpos et al.).
//
// Substitution note: the paper's coin is built from threshold
// cryptography so that its value is unpredictable until enough processes
// reveal shares. The consensus proofs use only two properties:
//
//   - Matching: every process in the maximal guild obtains the same leader
//     for a wave.
//   - Unpredictability/uniformity: the leader of wave w is uniform over P
//     and independent of how the adversary built the DAG before the wave
//     completed.
//
// A keyed PRF (SHA-256 over seed‖wave) evaluated identically at every
// process provides matching exactly and uniformity statistically; in the
// simulator the adversary's schedule is fixed before the seed is drawn, so
// unpredictability holds against it as well. An adaptive adversary can be
// modelled by choosing schedules as a function of the seed — the gather
// counterexample does exactly that via explicit scheduling instead.
// Shared (shared.go) adds the share-reveal step on top of any Source.
package coin

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/types"
)

// Source yields the leader of each wave. Implementations must be
// deterministic so that all processes agree.
type Source interface {
	// Leader returns the elected process for a wave (waves count from 1).
	Leader(wave int) types.ProcessID
}

// PRF is the seeded SHA-256 coin shared by all processes of a run.
type PRF struct {
	seed int64
	n    int
}

var _ Source = PRF{}

// NewPRF returns a coin over n processes with the given seed.
func NewPRF(seed int64, n int) PRF {
	if n <= 0 {
		panic("coin: need n > 0")
	}
	return PRF{seed: seed, n: n}
}

// Leader implements Source.
func (c PRF) Leader(wave int) types.ProcessID {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(c.seed))
	binary.BigEndian.PutUint64(buf[8:], uint64(wave))
	sum := sha256.Sum256(buf[:])
	v := binary.BigEndian.Uint64(sum[:8])
	return types.ProcessID(v % uint64(c.n))
}
