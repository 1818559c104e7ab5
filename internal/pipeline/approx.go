package pipeline

import "watchdog/internal/isa"

// This file is the pipeline model's functional-warming surface, used
// by the sampled fidelity's fast-forward phase. Neither entry point
// advances the pipeline clock or the retired-µop statistics; warming
// touches only cache/TLB state.

// WarmFetch keeps the I-side hierarchy (ITLB, L1I, shared levels)
// architecturally warm during fast-forward: the access stream the
// fetch stage would have issued is replayed against the caches, but
// no fetch-bandwidth or stall accounting happens. Sharing lastFetchBlk
// with OnInst is deliberate — the first timed instruction after a
// fast-forward sees the same "already fetching this block" state it
// would have seen in an exact run.
func (m *Model) WarmFetch(codeAddr uint64) {
	blk := codeAddr >> 6
	if blk != m.lastFetchBlk {
		m.lastFetchBlk = blk
		m.hier.Fetch(codeAddr)
	}
}

// Warm touches the cache hierarchy for one µop exactly as OnUop's
// execute/drain stages would — data loads and store drains through
// Data, lock-location reads through LockRead, lock writes through
// LockWrite, with the IdealShadow carve-outs mirrored — without any
// timing side effects. It is the per-µop half of functional warming:
// after a fast-forward phase the cache and TLB contents match what an
// exact run would hold, so warmup windows start from architecturally
// current state instead of a cold hierarchy.
func (m *Model) Warm(u *isa.Uop) {
	switch u.Op {
	case isa.UopCheck, isa.UopCheckFull:
		if m.IdealShadow && !m.hier.LockCacheEnabled() {
			return
		}
		m.hier.LockRead(u.Addr)
		return
	}
	if !u.IsMem {
		return
	}
	if m.IdealShadow && u.Shadow {
		return
	}
	if u.Lock {
		if u.IsWr {
			m.hier.LockWrite(u.Addr)
		} else {
			m.hier.LockRead(u.Addr)
		}
		return
	}
	m.hier.Data(u.Addr, u.IsWr)
}
