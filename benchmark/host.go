package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostInfo is stamped on every output: a number is only comparable with
// another taken on the same host shape.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_revision"`
}

func readHost() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        procField("/proc/cpuinfo", "model name"),
		GoVersion:  runtime.Version(),
		GitRev:     gitRevision(),
	}
}

func (h hostInfo) String() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s rev=%s",
		h.NProc, h.GOMAXPROCS, h.CPU, h.GoVersion, h.GitRev)
}

// gitRevision is the revision the go tool stamped into the binary. A
// checkout that is not a git repository (the driver's) has none.
func gitRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// procField returns the value of the first "key : value" line of a /proc
// text file, or "unknown" where the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's high-water resident set. Where /proc does not
// say, the Go runtime's own view of memory obtained from the OS stands in.
func peakRSSMB() float64 {
	if kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64); err == nil {
		return kb / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
