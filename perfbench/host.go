package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"dyntreecast/internal/rng"
)

// host identifies the machine and the code a result was measured on, so
// numbers from different hosts can be read against each other through
// the calibration metric rng.uint64_ns.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	// Source is a digest of the module's Go files and go.mod: the
	// identity of the code when the checkout carries no commit.
	Source string `json:"source_sha256"`
}

func fingerprint() host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
		Source:     sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the go command stamped into the binary, or
// "unknown" when it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(f) + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// calibrate times rng.Source.Uint64, the host's reference speed: the
// median of five batches, in ns per call.
func calibrate() float64 {
	const calls = 4 << 20
	src := rng.New(1)
	var per []float64
	var sink uint64
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			sink ^= src.Uint64()
		}
		per = append(per, float64(time.Since(t0))/calls)
	}
	calibrationSink = sink
	return median(per)
}

// calibrationSink keeps the calibration loop from being optimised away.
var calibrationSink uint64

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// retainedMB is the memory the Go runtime holds from the operating
// system and has not released back: the process's resident memory less
// what the runtime does not manage.
func retainedMB() float64 {
	sample := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()-sample[1].Value.Uint64()) / (1 << 20)
}

// peakRSSMB is the process's peak resident set size (ru_maxrss, which
// Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
