package memctrl

import "secddr/internal/dram"

// Clone returns a deep copy of the controller: queued requests and their
// cached candidates, in-flight completions, drain/quiescence state, the
// channel timing model, and all statistics. Ticking the copy reproduces
// exactly the command stream the original would have issued.
func (c *Controller) Clone() *Controller {
	n := new(Controller)
	*n = *c
	n.ch = c.ch.Clone()
	n.mapper = c.mapper.Clone()
	n.readQ = c.readQ.Clone()
	n.writeQ = c.writeQ.Clone()
	n.hor = append([]dram.Horizon(nil), c.hor...)
	n.pending = append(completionHeap(nil), c.pending...)
	n.doneBuf = append([]Completion(nil), c.doneBuf...)
	return n
}

// Clone returns a deep copy of the queue: its per-bank lists, cached
// candidates and mask.
func (q queue) Clone() queue {
	n := q
	n.banks = make([][]Request, len(q.banks))
	for b, l := range q.banks {
		n.banks[b] = append([]Request(nil), l...)
	}
	n.cands = append([]bankCands(nil), q.cands...)
	n.busy = append([]uint64(nil), q.busy...)
	return n
}
