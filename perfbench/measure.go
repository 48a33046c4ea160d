package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/rulingset/mprs/internal/buildinfo"
)

// probe is a snapshot of the clocks and counters a job is measured by.
type probe struct {
	wall           time.Time
	self, children syscall.Rusage
	mem            runtime.MemStats
}

// sample is what one job cost, as the difference of two probes.
type sample struct {
	Wall time.Duration
	// SelfCPU is user+sys CPU of this process; ChildCPU and ChildSys are
	// user+sys and sys CPU of reaped child processes (the multiproc workers).
	SelfCPU, ChildCPU, ChildSys time.Duration
	AllocBytes, AllocObjects    uint64
	GCCycles                    uint32
	GCPause                     time.Duration
	// PeakRSSMB is the largest resident set of this process during the job.
	PeakRSSMB float64
}

func getrusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		// Getrusage fails only for an invalid who; both callers pass constants.
		panic(err)
	}
	return ru
}

func startProbe() probe {
	var p probe
	resetPeakRSS()
	runtime.ReadMemStats(&p.mem)
	p.self = getrusage(syscall.RUSAGE_SELF)
	p.children = getrusage(syscall.RUSAGE_CHILDREN)
	p.wall = now()
	return p
}

// stop ends the measurement of this process. A caller that started worker
// processes adds their CPU with childCPU once they are reaped.
func (p probe) stop() sample {
	wall := now().Sub(p.wall)
	self := getrusage(syscall.RUSAGE_SELF)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return sample{
		Wall:         wall,
		SelfCPU:      cpuTime(self) - cpuTime(p.self),
		AllocBytes:   mem.TotalAlloc - p.mem.TotalAlloc,
		AllocObjects: mem.Mallocs - p.mem.Mallocs,
		GCCycles:     mem.NumGC - p.mem.NumGC,
		GCPause:      time.Duration(mem.PauseTotalNs - p.mem.PauseTotalNs),
		PeakRSSMB:    selfPeakRSSMB(),
	}
}

// now reads the wall clock. Measuring wall time is the benchmark's purpose,
// which detlint's wallclock rule leaves to harness code; every read of the
// clock goes through here.
func now() time.Time {
	return time.Now() //detlint:ok wallclock -- benchmark harness: wall time is the quantity measured, never fed back into a job
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

func cpuTime(ru syscall.Rusage) time.Duration { return tv(ru.Utime) + tv(ru.Stime) }

// resetPeakRSS restarts this process's resident-set high-water mark (Linux
// 4.0 and later), so that each job reports its own peak rather than the
// largest since the process started.
func resetPeakRSS() {
	// A kernel that refuses leaves the mark counting from process start.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// selfPeakRSSMB is this process's resident-set high-water mark in MiB:
// VmHWM, or ru_maxrss where /proc is unavailable (both are in KiB).
func selfPeakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			v, ok := strings.CutPrefix(line, "VmHWM:")
			if f := strings.Fields(v); ok && len(f) > 0 {
				if kib, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kib / 1024
				}
			}
		}
	}
	return float64(getrusage(syscall.RUSAGE_SELF).Maxrss) / 1024
}

// childrenPeakRSSMB is the largest resident set, in MiB, of any reaped
// child process so far (ru_maxrss of RUSAGE_CHILDREN is a running maximum).
func childrenPeakRSSMB() float64 {
	return float64(getrusage(syscall.RUSAGE_CHILDREN).Maxrss) / 1024
}

// hostStamp identifies the host class and the code a result belongs to;
// numbers are comparable only between equal stamps.
type hostStamp struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision"`
	// SourceSHA256 digests the checkout's Go sources and module files; it
	// identifies the code when the checkout carries no VCS metadata.
	SourceSHA256 string `json:"source_sha256"`
}

func stampHost(root string) hostStamp {
	s := hostStamp{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUModel:    cpuModel(),
		GoVersion:   runtime.Version(),
		VCSRevision: buildinfo.Get().VCSRevision,
	}
	if s.VCSRevision == "" {
		s.VCSRevision = "none"
	}
	s.SourceSHA256 = sourceDigest(root)
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go, go.mod and go.sum file under root (hidden
// directories skipped) in path order; "unreadable" if the walk fails.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unreadable"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "unreadable"
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unreadable"
		}
		io.WriteString(h, "\x00"+filepath.ToSlash(p)+"\x00")
	}
	return hex.EncodeToString(h.Sum(nil))
}
