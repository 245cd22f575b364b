package service

import (
	"bytes"
	"errors"
	"sort"
	"strconv"

	"repro/internal/types"
)

// CompareSnapshots verifies the service-mode agreement invariant across a
// run's replicas: whenever two replicas both snapshotted at the same
// decided wave, their applied counts match and their machine states are
// byte-identical. Replicas may pass through different decided-wave
// sequences (chain commits jump), so only waves actually shared are
// compared. It returns the number of cross-replica comparisons made —
// 0 means no wave was shared, a vacuous result callers should flag.
func CompareSnapshots(res Result) (int, error) {
	type point struct {
		owner types.ProcessID
		snap  Snapshot
	}
	byWave := map[int]point{}
	common := 0
	// Walk replicas in PID order so the wave's reference snapshot (and the
	// pair named in any error) is the same on every run.
	pids := make([]types.ProcessID, 0, len(res.Replicas))
	for p := range res.Replicas {
		pids = append(pids, p)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, p := range pids {
		rep := res.Replicas[p]
		for _, s := range rep.Snapshots {
			prev, ok := byWave[s.Wave]
			if !ok {
				byWave[s.Wave] = point{owner: p, snap: s}
				continue
			}
			common++
			if prev.snap.Applied != s.Applied {
				return common, errors.New("service: wave " + strconv.Itoa(s.Wave) + " applied mismatch: replica " +
					prev.owner.String() + " applied " + strconv.Itoa(prev.snap.Applied) +
					", replica " + p.String() + " applied " + strconv.Itoa(s.Applied))
			}
			if !bytes.Equal(prev.snap.State, s.State) {
				return common, errors.New("service: wave " + strconv.Itoa(s.Wave) +
					" snapshot state differs between replicas " + prev.owner.String() + " and " + p.String())
			}
		}
	}
	return common, nil
}
