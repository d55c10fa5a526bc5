package sim

import "spstream/internal/sptensor"

// LockSim is a discrete-event simulator of the lock-based MTTKRP: p
// virtual threads process their statically assigned nonzeros in order;
// each update computes its row product lock-free, then serializes on the
// striped mutex guarding its output row. It exists as an independent
// cross-check of the closed-form contention model in kernels.go — tests
// assert that both predict the same qualitative behaviour (hot rows
// flatten or invert thread scaling).
type LockSim struct {
	Threads  int
	PoolSize int
	// WorkNs is the lock-free row-product time per nonzero.
	WorkNs float64
	// UpdateNs is the in-critical-section accumulate time.
	UpdateNs float64
	// LockNs is the uncontended acquire/release cost.
	LockNs float64
	// ContendNs is the extra cost when the acquire had to wait (cache
	// line transfer from another core).
	ContendNs float64
	// Chunk is the round-robin scheduling chunk (nonzeros per grab).
	Chunk int
}

// Run simulates processing the given per-update output rows and returns
// the makespan in seconds. Updates are assigned to threads in
// round-robin chunks (like the real kernel's schedule) and then
// processed in global time order: at every step the thread with the
// earliest clock executes its next update, waiting if the target lock
// is still held. Processing in time order is what makes the simulation
// causally correct — a thread can only contend with updates that have
// actually happened.
func (ls LockSim) Run(rows []int32) float64 {
	p := ls.Threads
	if p < 1 {
		p = 1
	}
	chunk := ls.Chunk
	if chunk < 1 {
		chunk = 256
	}
	pool := ls.PoolSize
	if pool < 1 {
		pool = 1024
	}
	// Next-pow2 mask like the real pool.
	size := 1
	for size < pool {
		size <<= 1
	}
	mask := int32(size - 1)
	n := len(rows)
	if n == 0 {
		return 0
	}
	if p > (n+chunk-1)/chunk {
		p = (n + chunk - 1) / chunk
	}

	// Assign update indices to threads in chunked round-robin order.
	assigned := make([][]int32, p)
	for start := 0; start < n; start += chunk {
		tid := (start / chunk) % p
		end := start + chunk
		if end > n {
			end = n
		}
		assigned[tid] = append(assigned[tid], rows[start:end]...)
	}

	lockFree := make([]float64, size)
	clock := make([]float64, p)
	cursor := make([]int, p)
	remaining := p
	for remaining > 0 {
		// Pick the unfinished thread with the earliest clock (p ≤ 64,
		// linear scan is cheap).
		tid := -1
		for w := 0; w < p; w++ {
			if cursor[w] >= len(assigned[w]) {
				continue
			}
			if tid < 0 || clock[w] < clock[tid] {
				tid = w
			}
		}
		i := cursor[tid]
		cursor[tid]++
		if cursor[tid] >= len(assigned[tid]) {
			remaining--
		}
		// Deterministic ±25% jitter on the lock-free work breaks the
		// lockstep artifact of identical per-update costs.
		h := (uint64(tid)<<32 | uint64(i)) * 0x9E3779B97F4A7C15
		h ^= h >> 29
		jitter := 0.75 + 0.5*float64(h&0xFFFF)/65536.0
		t := clock[tid] + ls.WorkNs*jitter
		l := assigned[tid][i] & mask
		cost := ls.LockNs
		if lockFree[l] > t {
			t = lockFree[l]
			cost += ls.ContendNs
		}
		done := t + cost + ls.UpdateNs
		lockFree[l] = done
		clock[tid] = done
	}
	makespan := 0.0
	for _, t := range clock {
		if t > makespan {
			makespan = t
		}
	}
	return makespan * 1e-9
}

// SimulateLockMTTKRP runs the event simulator over an actual slice's
// target-mode rows with costs derived from the model parameters.
func (mo Model) SimulateLockMTTKRP(x *sptensor.Tensor, mode, k, p int) float64 {
	sim := LockSim{
		Threads:   p,
		PoolSize:  lockPoolSize,
		WorkNs:    mo.rowWork(k, x.NModes()),
		UpdateNs:  mo.updateWork(k),
		LockNs:    mo.P.LockNs,
		ContendNs: mo.P.ContendNs,
	}
	return sim.Run(x.Inds[mode])
}
