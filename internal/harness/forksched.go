package harness

import (
	"context"
	"fmt"
	"sync"

	"secddr/internal/sim"
)

// This file holds the campaign scheduler behind RunContext. For the
// built-in simulator, points whose options share a sim.WarmupKey form a
// snapshot group that warms once (sim.Warmup) and forks every member from
// the snapshot (sim.Warmed.Fork). Forking is result-identical to a cold
// run — the sim package's snapshot identity suite is the proof — so the
// caching, dedup, and store semantics are unchanged; only redundant
// warmups disappear. A substituted Campaign.Sim cannot fork, so each of
// its points is a one-point group.

// runForked executes the pending points with warmup sharing and returns
// the executed results with the first error. Groups are formed by
// iterating the deterministic order slice, never the pending map: map
// iteration would randomize group and store-append order between
// identical runs (the emitted JSON stays byte-identical either way, but
// determinism everywhere is what keeps that property easy to trust).
// One-point groups run cold — forking a snapshot used once would pay a
// deep copy for nothing. Fork tasks are scheduled in preference to warmup
// tasks so snapshots retire (and free their memory) before new ones are
// created. On the first error (or ctx cancellation) no further task
// starts; in-flight tasks finish and their results still reach the store.
func (c Campaign) runForked(ctx context.Context, order []string, pending map[string]sim.Options,
	keyOf map[string]string, store Store, prog *progressTracker) (map[string]sim.Result, error) {

	type group struct{ digests []string }
	groupIdx := make(map[string]int)
	var groups []*group
	for _, d := range order {
		if c.Sim != nil {
			groups = append(groups, &group{digests: []string{d}})
			continue
		}
		k := pending[d].WarmupKey()
		gi, ok := groupIdx[k]
		if !ok {
			gi = len(groups)
			groupIdx[k] = gi
			groups = append(groups, &group{})
		}
		groups[gi].digests = append(groups[gi].digests, d)
	}

	type forkTask struct {
		warmed *sim.Warmed
		digest string
	}
	executed := make(map[string]sim.Result, len(order))
	var (
		mu       sync.Mutex // guards executed and firstErr
		firstErr error

		qmu    sync.Mutex
		cond   = sync.NewCond(&qmu)
		warms  = groups
		forks  []forkTask
		active int
	)
	// aborted is checked before claiming each task; in-flight tasks always
	// finish (their results still reach the store). Lock order: qmu, then
	// mu — never the reverse.
	aborted := func() bool {
		if ctx.Err() != nil {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	finish := func(d string, res sim.Result, err error, forked bool) {
		if err != nil && c.OnError != nil {
			c.OnError(d, err)
		}
		if err == nil {
			err = store.Record(d, res)
		}
		mu.Lock()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", keyOf[d], err)
			}
		} else {
			executed[d] = res
		}
		mu.Unlock()
		if err == nil {
			prog.executed(forked)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < c.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				qmu.Lock()
				for len(forks) == 0 && len(warms) == 0 && active > 0 {
					cond.Wait()
				}
				if len(forks) == 0 && len(warms) == 0 {
					// Nothing queued and nothing in flight that could
					// enqueue more: the campaign is done.
					qmu.Unlock()
					cond.Broadcast()
					return
				}
				if aborted() {
					forks, warms = nil, nil
					qmu.Unlock()
					cond.Broadcast()
					return
				}
				var ft forkTask
				var g *group
				if len(forks) > 0 {
					ft = forks[len(forks)-1]
					forks = forks[:len(forks)-1]
				} else {
					g = warms[0]
					warms = warms[1:]
				}
				active++
				qmu.Unlock()

				switch {
				case g == nil:
					res, err := ft.warmed.Fork(pending[ft.digest])
					finish(ft.digest, res, err, true)
				case c.Sim != nil:
					d := g.digests[0]
					res, err := c.Sim(pending[d])
					finish(d, res, err, false)
				case len(g.digests) == 1:
					// A cold run pays its own (uncounted-by-Warmup) timed
					// warmup; count it so Executed - Warmups is exactly the
					// number of warmups sharing saved.
					prog.warmup()
					d := g.digests[0]
					res, err := sim.Run(pending[d])
					finish(d, res, err, false)
				default:
					d0 := g.digests[0]
					warmed, err := sim.Warmup(pending[d0])
					if err != nil {
						// The whole group is doomed: report every member so
						// a fleet worker can release its leases, and label
						// the campaign error with the first one.
						for _, d := range g.digests {
							if c.OnError != nil {
								c.OnError(d, err)
							}
						}
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("%s: %w", keyOf[d0], err)
						}
						mu.Unlock()
					} else {
						prog.warmup()
						qmu.Lock()
						for _, d := range g.digests {
							forks = append(forks, forkTask{warmed: warmed, digest: d})
						}
						qmu.Unlock()
					}
				}

				qmu.Lock()
				active--
				qmu.Unlock()
				cond.Broadcast()
			}
		}()
	}
	wg.Wait()
	return executed, firstErr
}
