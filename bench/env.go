package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is the provenance block printed with every result, so a
// number can be traced to the box and the commit that produced it.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GitSHA     string `json:"git_sha"`
	GitDirty   string `json:"git_dirty"`
}

func readEnvironment() environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GitSHA:     "unknown",
		GitDirty:   "unknown",
	}
	// `go run` stamps no VCS data into the binary, so ask git, which answers
	// only inside a work tree. The driver's checkout is not one, and
	// "unknown" is expected there.
	if sha, err := git("rev-parse", "HEAD"); err == nil {
		env.GitSHA = sha
		if changes, err := git("status", "--porcelain"); err == nil {
			env.GitDirty = strconv.FormatBool(changes != "")
		}
	}
	return env
}

// git runs one read-only git command and waits for it to end.
func git(args ...string) (string, error) {
	out, err := exec.Command("git", append([]string{"--no-optional-locks"}, args...)...).Output()
	return strings.TrimSpace(string(out)), err
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

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's high-water resident set in MB (Linux
// reports ru_maxrss in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memCounters reads the allocator's cumulative counters. ReadMemStats stops
// the world, so it is only called between timed segments.
func memCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}
