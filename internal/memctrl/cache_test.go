package memctrl

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"secddr/internal/config"
	"secddr/internal/dram"
)

// requireFreshCache fails unless every busy bank's cached candidates equal
// a recomputation from the current lists and channel state: no enqueue,
// issued command or refresh step may leave a stale entry behind.
func requireFreshCache(t *testing.T, c *Controller, now int64) {
	t.Helper()
	for _, q := range []*queue{&c.readQ, &c.writeQ} {
		for b := range q.banks {
			if len(q.banks[b]) == 0 {
				continue
			}
			cached := q.cands[b]
			c.cacheCands(q, b)
			if q.cands[b] != cached {
				t.Fatalf("cycle %d: %v bank %d cache %+v, fresh %+v", now, q.col, b, cached, q.cands[b])
			}
		}
	}
}

// TestCandidateCacheAndWarmClone drives a seeded random stream with refresh
// on and requires, every cycle, that the candidate cache is fresh. Once
// the queues are warm, a clone is taken; fed the same enqueues, it must
// tick identically to the original: the same completions, channel
// counters and scheduling state every cycle.
func TestCandidateCacheAndWarmClone(t *testing.T) {
	ddr5x4 := config.Table1DDR5(config.ModeUnprotected).DRAM
	ddr5x4.Ranks = 4
	ddr5x4.CapacityBytes *= 2
	for i, cfg := range []config.DRAM{config.Table1(config.ModeSecDDRCTR).DRAM, ddr5x4} {
		cfg.RefreshEnabled = true
		cfg.Timing.TREFI = 2000
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			t.Parallel()
			ctl := newCtl(t, cfg)
			ctl.SetEventDriven(true)
			ctls := []*Controller{ctl}
			rng := rand.New(rand.NewSource(int64(i + 1)))
			lines := make([]uint64, 256)
			for j := range lines {
				lines[j] = ctl.mapper.Unmap(0, dram.Loc{
					Rank:      rng.Intn(cfg.Ranks),
					BankGroup: rng.Intn(cfg.BankGroups),
					Bank:      rng.Intn(cfg.BanksPerGroup()),
					Row:       uint32(rng.Intn(3)),
					Col:       uint32(rng.Intn(16)),
				})
			}
			for now := int64(0); now < 5000; now++ {
				if len(ctls) == 1 && ctl.ReadQueueLen()+ctl.WriteQueueLen() >= 24 {
					ctls = append(ctls, ctl.Clone())
				}
				if rng.Intn(3) == 0 {
					addr, write := lines[rng.Intn(len(lines))], rng.Intn(3) == 0
					for _, c := range ctls {
						if write {
							c.EnqueueWrite(addr, now)
						} else {
							c.EnqueueRead(addr, now)
						}
					}
				}
				want := fmt.Sprint(ctl.Tick(now))
				requireFreshCache(t, ctl, now)
				for _, c := range ctls[1:] {
					if got := fmt.Sprint(c.Tick(now)); got != want {
						t.Fatalf("cycle %d: clone completions %s, original %s", now, got, want)
					}
					if !reflect.DeepEqual(c.Channel().Counters(), ctl.Channel().Counters()) {
						t.Fatalf("cycle %d: clone counters diverged", now)
					}
					if c.DebugState() != ctl.DebugState() {
						t.Fatalf("cycle %d: clone state\n%s\noriginal\n%s", now, c.DebugState(), ctl.DebugState())
					}
				}
			}
			if len(ctls) == 1 || ctl.Channel().NumREF == 0 || ctl.ReadsCompleted == 0 {
				t.Fatalf("stream too tame: clone taken %v, REF %d, reads %d",
					len(ctls) > 1, ctl.Channel().NumREF, ctl.ReadsCompleted)
			}
		})
	}
}

// TestExternalChannelMutationGuards checks that channel state can be
// grafted only onto a controller with empty queues, and refresh rebased
// only with reads idle, since either would otherwise run under queued
// requests whose cached candidates they might make stale.
func TestExternalChannelMutationGuards(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Errorf("%s: recovered %v, want a panic mentioning %q", name, r, want)
			}
		}()
		f()
	}
	cfg := testCfg()
	src := newCtl(t, cfg)
	dst := newCtl(t, cfg)
	dst.AdoptChannelState(src) // empty queues: allowed
	if err := dst.EnqueueWrite(0x40, 0); err != nil {
		t.Fatal(err)
	}
	mustPanic("AdoptChannelState", "queued", func() { dst.AdoptChannelState(src) })
	dst.SkipRefreshTo(1 << 20) // queued writes only: allowed
	if _, _, err := dst.EnqueueRead(0x10000, 0); err != nil {
		t.Fatal(err)
	}
	mustPanic("SkipRefreshTo", "reads in flight", func() { dst.SkipRefreshTo(1 << 21) })
}
