package memctrl

import (
	"testing"

	"secddr/internal/cache"
	"secddr/internal/config"
	"secddr/internal/trace"
)

// BenchmarkTickFullQueue times one event-driven memory cycle of the Table I
// controller with both queues held at their 64-entry capacity: before every
// Tick the read queue is topped up from mcf's LLC miss stream and the write
// queue from its dirty evictions. A full queue is the scheduler's worst
// case and the steady state of memory-bound runs. ns/op is per memory
// cycle.
func BenchmarkTickFullQueue(b *testing.B) {
	cfg := config.Table1(config.ModeIntegrityTree)
	p, _ := trace.ByName("mcf")
	gen, err := trace.NewGenerator(p, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	llc, err := cache.New(cfg.LLC)
	if err != nil {
		b.Fatal(err)
	}
	var reads, writes []uint64
	for len(reads) < 1<<16 || len(writes) < 1<<14 {
		op, _ := gen.Next()
		if llc.Access(op.Addr, op.Store) {
			continue
		}
		reads = append(reads, op.Addr)
		if v, ok := llc.Fill(op.Addr, op.Store); ok && v.Dirty {
			writes = append(writes, v.Addr)
		}
	}
	c, err := New(cfg.DRAM)
	if err != nil {
		b.Fatal(err)
	}
	c.SetEventDriven(true)
	nr, nw := 0, 0
	b.ResetTimer()
	for now := int64(1); now <= int64(b.N); now++ {
		for c.CanEnqueueRead() {
			if _, _, err := c.EnqueueRead(reads[nr%len(reads)], now); err != nil {
				b.Fatal(err)
			}
			nr++
		}
		for c.CanEnqueueWrite() {
			if err := c.EnqueueWrite(writes[nw%len(writes)], now); err != nil {
				b.Fatal(err)
			}
			nw++
		}
		c.Tick(now)
	}
	b.ReportMetric(float64(c.ReadsCompleted+c.WritesCompleted)/float64(b.N), "cols/cycle")
}
