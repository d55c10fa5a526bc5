package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hostDesc travels with every JSON result, so a number can be traced
// to the machine and build that produced it.
type hostDesc struct {
	CPUModel         string  `json:"cpu_model"`
	NProc            int     `json:"nproc"`
	GOMAXPROCS       int     `json:"gomaxprocs_bench"`
	DaemonGOMAXPROCS int     `json:"gomaxprocs_daemon"`
	GoVersion        string  `json:"go_version"`
	GitCommit        string  `json:"git_commit"`
	LLCBytes         int64   `json:"llc_bytes"`
	TriadArrayBytes  int64   `json:"triad_array_bytes"`
	TriadGBs         float64 `json:"host_triad_gbs"`
}

func describeHost(root string, env *runEnv) hostDesc {
	h := hostDesc{
		CPUModel: "unknown", NProc: runtime.NumCPU(),
		GOMAXPROCS: env.workers, DaemonGOMAXPROCS: env.daemonProcs,
		GoVersion: runtime.Version(), GitCommit: "unknown", LLCBytes: llcBytes(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// A driver checkout is not a git repository; the commit is then unknown.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	return h
}

// llcBytes is the largest cache sysfs reports for cpu0 (8 MiB when it
// reports none, as in some containers).
func llcBytes() int64 {
	best := int64(0)
	paths, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	if best == 0 {
		best = 8 << 20
	}
	return best
}

// triad measures sustainable memory bandwidth the STREAM way,
// a[i] = b[i] + s·c[i] over three arrays each at least four times the
// last-level cache, split over the bench's workers; the best of a few
// passes, in GB/s (24 bytes move per element).
//
// A VM that reports a whole socket's L3 (260 MB on the reference host)
// would need 3 GB of arrays; each array is capped at 256 MiB, so the
// three together are still three times that cache. Both sizes travel
// in the host descriptor.
func triad(workers int, quick bool) (gbs float64) {
	n := int(triadArrayBytes(quick) / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := time.Duration(1 << 62)
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
			}()
		}
		wg.Wait()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return 24 * float64(n) / best.Seconds() / 1e9
}

// triadArrayBytes is the size of each triad array: four times the
// last-level cache, capped; under -quick a token 8 MiB, since a smoke
// run reads no bandwidth ratio.
func triadArrayBytes(quick bool) int64 {
	if quick {
		return 8 << 20
	}
	return min(4*llcBytes(), triadArrayCap)
}

// procStatusMB reads a kB field (VmHWM, VmRSS) of /proc/<pid>/status
// in MB; 0 when the field cannot be read.
func procStatusMB(pid int, field string) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && k == field {
			kb, err := strconv.ParseFloat(strings.Fields(v)[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1000
		}
	}
	return 0
}

const triadArrayCap = 256 << 20

// heapSampler tracks the live-heap high-water mark over the baseline
// at its start, polling every 20 ms.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	base uint64
	high uint64
}

// heapObjects reads the bytes of live and not-yet-swept heap objects
// without stopping the world.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{done: make(chan struct{}), base: heapObjects()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-tick.C:
				if v := heapObjects(); v > h.high {
					h.high = v
				}
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the high-water delta in MB.
func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	if h.high <= h.base {
		return 0
	}
	return float64(h.high-h.base) / 1e6
}

// selfCPU is the user+system CPU time this process has consumed.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPUSeconds is the user+system CPU time a process has consumed,
// from /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s);
// 0 when it cannot be read. Time the hypervisor gave to other guests
// is not in it, which makes it the steadier twin of a wall-clock time
// on a shared host.
func procCPUSeconds(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; fields resume
	// after its closing parenthesis.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0
	}
	return (utime + stime) / 100
}
