package sim

import (
	"spstream/internal/perfmodel"
	"spstream/internal/roofline"
)

// ADMMKind selects the ADMM implementation being modeled.
type ADMMKind int

const (
	// ADMMBaseline is Algorithm 2: one fine-grained parallel pass per
	// operation.
	ADMMBaseline ADMMKind = iota
	// ADMMBlockedFused is Algorithm 3.
	ADMMBlockedFused
)

// ADMMIterTime predicts the time of one ADMM iteration on an I×K
// iterate with p threads.
//
// Baseline: five separate passes; traffic 22·I·K + K² words; the
// one-thread-per-element parallelization adds ElemNs·(1/p + α) per
// element — the α component models coherence/false-sharing work that
// does not parallelize, which is what caps baseline scaling (Fig. 2
// flattens past 14 threads for both, but baseline flattens far higher).
//
// Blocked & Fused: a single fused pass; traffic 15·I·K + K² words; row
// blocks keep the five operands cache-resident within the fused chain.
func (mo Model) ADMMIterTime(kind ADMMKind, i, k, p int) float64 {
	p = mo.clampThreads(p)
	ii, kk := int64(i), int64(k)
	footprint := 5 * ii * kk * 8 // A, Ã, A₀, U, Ψ
	switch kind {
	case ADMMBaseline:
		tot := roofline.ADMMBaselineTotal(ii, kk)
		t := mo.memTime(float64(tot.Flops), float64(tot.Words()*8), footprint, p)
		elems := float64(ii * kk)
		sched := elems * mo.P.ElemNs * (1/float64(p) + mo.P.ElemAlpha) * 1e-9
		return t + sched + 5*mo.barrier(p)
	default:
		tot := roofline.ADMMFusedTotal(ii, kk)
		t := mo.memTime(float64(tot.Flops), float64(tot.Words()*8), footprint, p)
		return t + float64(ii*kk)*mo.P.GramNsPerElem*1e-9/float64(p) + mo.barrier(p)
	}
}

// MTTKRPKind selects the MTTKRP implementation being modeled.
type MTTKRPKind int

const (
	// MTTKRPLock is the baseline mutex-pool kernel.
	MTTKRPLock MTTKRPKind = iota
	// MTTKRPHybrid is the paper's Hybrid Lock kernel.
	MTTKRPHybrid
	// MTTKRPRowSparse is spCP-stream's spMTTKRP over gathered nz rows.
	MTTKRPRowSparse
)

// shortModeThreshold mirrors the kernel's switch point.
const shortModeThreshold = 1024

// lockPoolSize mirrors the striped pool size.
const lockPoolSize = 1024

// contendCost is the cost of a contended lock handoff: one cache-line
// transfer plus arbitration that grows with the number of cores
// hammering the line (cross-socket transfers past 14 cores).
func (mo Model) contendCost(p int) float64 {
	if p <= 1 {
		return 0
	}
	return mo.P.ContendNs * (1 + float64(p)/8)
}

// rowWork returns the lock-free per-nonzero cost (ns): the K-wide
// product chain over the source modes plus the fixed per-nonzero
// overhead shared by all kernel variants.
func (mo Model) rowWork(k, nModes int) float64 {
	return float64(k)*float64(nModes)*mo.P.RowProductNsPerK + mo.P.NnzOverheadNs
}

// updateWork returns the in-critical-section accumulate cost (ns).
func (mo Model) updateWork(k int) float64 { return float64(k) * 0.2 }

// lockedModeTime models the mutex-pool path. Three bounds compete:
// the parallel work, the serial drain of the hottest lock (whose
// handoff cost grows with contenders — this is what makes the baseline
// *degrade* with threads on skewed modes, Fig. 4), and memory bandwidth.
func (mo Model) lockedModeTime(rows int, topRowFrac float64, nnz float64, k, nModes, p int, footprint int64) float64 {
	effRows := rows
	if effRows > lockPoolSize {
		effRows = lockPoolSize
	}
	if effRows < 1 {
		effRows = 1
	}
	hotFrac := topRowFrac
	if floor := 1 / float64(effRows); hotFrac < floor {
		hotFrac = floor
	}
	collide := func(f float64) float64 {
		c := float64(p-1) * f
		if c > 1 {
			c = 1
		}
		return c
	}
	cc := mo.contendCost(p)
	if footprint <= mo.P.TinyFootprintBytes {
		cc *= mo.P.CacheContendFactor
	}
	hotLockCost := mo.P.LockNs + collide(hotFrac)*cc
	coldLockCost := mo.P.LockNs + collide(1/float64(effRows))*cc
	work := nnz * mo.rowWork(k, nModes)
	lockTotal := nnz * (hotFrac*hotLockCost + (1-hotFrac)*coldLockCost)
	parallel := (work + lockTotal) / float64(p) * 1e-9
	hotSerial := nnz * hotFrac * (mo.updateWork(k) + hotLockCost) * 1e-9
	t := parallel
	if hotSerial > t {
		t = hotSerial
	}
	// Bandwidth bound on streaming the nonzeros (value + indices) and
	// factor-row reads.
	mem := mo.memTime(0, nnz*float64(8+4*nModes), footprint, p)
	if mem > t {
		t = mem
	}
	return t + mo.barrier(p)
}

// localModeTime models the thread-local accumulate path: perfectly
// parallel work plus the serial p-way reduction of the rows×K output.
func (mo Model) localModeTime(rows int, nnz float64, k, nModes, p int, workScale float64) float64 {
	work := nnz * mo.rowWork(k, nModes) * workScale / float64(p) * 1e-9
	reduce := float64(rows) * float64(k) * float64(p) * mo.P.ReduceNs * 1e-9
	return work + reduce + mo.barrier(p)
}

// MTTKRPModeTime predicts the MTTKRP for one target mode.
func (mo Model) MTTKRPModeTime(kind MTTKRPKind, s perfmodel.SliceProfile, mode, k, p int) float64 {
	p = mo.clampThreads(p)
	m := s.Modes[mode]
	nnz := float64(s.NNZ)
	if nnz == 0 {
		return 0
	}
	n := len(s.Modes)
	// Footprint of the factor rows the kernel touches.
	var rows int64
	for _, mm := range s.Modes {
		rows += int64(mm.Dim)
	}
	footprint := rows * int64(k) * 8
	switch kind {
	case MTTKRPRowSparse:
		// Post-remap the mode length shrinks to |nz(n)| and the factors
		// are the gathered A_nz, so the footprint is slice-local.
		var nzRows int64
		for _, mm := range s.Modes {
			nzRows += int64(mm.NZRows)
		}
		spFootprint := nzRows * int64(k) * 8
		workScale := 1.0
		if mo.cacheResident(spFootprint, p) {
			workScale = mo.P.SpLocalityFactor
		}
		if m.NZRows <= shortModeThreshold {
			return mo.localModeTime(m.NZRows, nnz, k, n, p, workScale)
		}
		t := mo.lockedModeTime(m.NZRows, m.TopRowFrac, nnz, k, n, p, spFootprint)
		return t * workScale
	case MTTKRPHybrid:
		if m.Dim <= shortModeThreshold {
			return mo.localModeTime(m.Dim, nnz, k, n, p, 1)
		}
		return mo.lockedModeTime(m.Dim, m.TopRowFrac, nnz, k, n, p, footprint)
	default:
		return mo.lockedModeTime(m.Dim, m.TopRowFrac, nnz, k, n, p, footprint)
	}
}

// MTTKRPTime predicts the summed MTTKRP time across all N modes of one
// inner iteration (the streaming-mode update is separate; see
// TimeModeUpdateTime).
func (mo Model) MTTKRPTime(kind MTTKRPKind, s perfmodel.SliceProfile, k, p int) float64 {
	t := 0.0
	for mode := range s.Modes {
		t += mo.MTTKRPModeTime(kind, s, mode, k, p)
	}
	return t
}

// TimeModeUpdateTime predicts the streaming-mode (sₜ) MTTKRP: a single
// output row, computed once per inner iteration. locked selects the
// baseline's one-lock path — every update serializes on one mutex whose
// line ping-pongs between all p cores, so this kernel gets *slower*
// with more threads; otherwise the thread-local reduction path scales.
func (mo Model) TimeModeUpdateTime(s perfmodel.SliceProfile, k, p int, locked bool) float64 {
	p = mo.clampThreads(p)
	nnz := float64(s.NNZ)
	n := len(s.Modes)
	if !locked {
		return mo.localModeTime(1, nnz, k, n, p, 1)
	}
	if p == 1 {
		return nnz * (mo.rowWork(k, n) + mo.updateWork(k) + mo.P.LockNs) * 1e-9
	}
	var rows int64
	for _, mm := range s.Modes {
		rows += int64(mm.Dim)
	}
	cc := mo.contendCost(p)
	if rows*int64(k)*8 <= mo.P.TinyFootprintBytes {
		cc *= mo.P.CacheContendFactor
	}
	serial := nnz * (mo.updateWork(k) + mo.P.LockNs + cc) * 1e-9
	parallelWork := nnz * mo.rowWork(k, n) / float64(p) * 1e-9
	if parallelWork > serial {
		serial = parallelWork
	}
	return serial + mo.barrier(p)
}
