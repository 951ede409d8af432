package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// environment is recorded with every result so that figures from
// different machines, core counts or storage are never compared blind.
type environment struct {
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model"`
	LoadStart   string `json:"loadavg_start"`
	LoadEnd     string `json:"loadavg_end,omitempty"`
	StoreFSType string `json:"store_fs_type"`
	// CPURefStart and CPURefEnd time a fixed arithmetic loop before and
	// after the workload. The host's speed drifts with its other
	// tenants; these show by how much, so a shifted figure can be told
	// from a changed program.
	CPURefStart float64 `json:"cpu_ref_ms_start"`
	CPURefEnd   float64 `json:"cpu_ref_ms_end,omitempty"`
}

func readEnvironment(storeDir string) environment {
	return environment{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		LoadStart:   loadavg(),
		StoreFSType: fsType(storeDir),
		CPURefStart: cpuRefMs(),
	}
}

// cpuRefMs times a fixed splitmix64 and floating-point loop, in ms
// (the fastest of three rounds).
func cpuRefMs() float64 {
	best := math.Inf(1)
	var f float64
	for round := 0; round < 3; round++ {
		start := time.Now()
		var x uint64
		for i := 0; i < 10_000_000; i++ {
			x += 0x9e3779b97f4a7c15
			z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			f += float64(z>>11) * 0x1p-53
		}
		best = math.Min(best, msSince(start))
	}
	if f < 0 { // never: keeps the loop from being optimised away
		return 0
	}
	return best
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
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

// loadavg returns the three load averages of /proc/loadavg.
func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}
