package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

// environment identifies where and on what a result was measured.
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Backend    string `json:"backend"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func currentEnvironment(workload string, seed int64, seconds int, trace bool) environment {
	return environment{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Backend: tensor.ActiveBackend().String(),
		Go: runtime.Version(), Commit: commit(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
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

// commit names the measured source: the VCS revision when the binary was
// built in a git work tree, otherwise a digest of the Go sources and build
// files under the current directory (the checkout root).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || strings.HasSuffix(p, ".sh")) {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		io.Copy(h, f)
		f.Close()
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// phaseCounts is one phase's line of the result record.
type phaseCounts struct {
	Name   string  `json:"name"`
	Rate   float64 `json:"rate_qps,omitempty"`
	Sent   int     `json:"sent"`
	OK     int     `json:"ok"`
	Failed int     `json:"failed"`
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run reports, as written to the result file.
type resultRecord struct {
	Env     environment       `json:"env"`
	Correct bool              `json:"correct"`
	Errors  []string          `json:"errors,omitempty"`
	Phases  []phaseCounts     `json:"phases"`
	Metrics map[string]metric `json:"metrics"`
}

func readRecord(path string) (resultRecord, error) {
	var r resultRecord
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareRecords prints new against old, metric by metric. Results from
// different kernel backends or core counts are not comparable, and are
// refused.
func compareRecords(w io.Writer, oldPath, newPath string) error {
	a, err := readRecord(oldPath)
	if err != nil {
		return err
	}
	b, err := readRecord(newPath)
	if err != nil {
		return err
	}
	if a.Env.Backend != b.Env.Backend || a.Env.NProc != b.Env.NProc {
		return fmt.Errorf("refusing to compare: backend %s/%s, nproc %d/%d", a.Env.Backend, b.Env.Backend, a.Env.NProc, b.Env.NProc)
	}
	if a.Env.Workload != b.Env.Workload {
		return fmt.Errorf("refusing to compare workloads %s and %s", a.Env.Workload, b.Env.Workload)
	}
	fmt.Fprintf(w, "%s: %s (seed %d) -> %s (seed %d)\n", a.Env.Workload, a.Env.Commit, a.Env.Seed, b.Env.Commit, b.Env.Seed)
	var names []string
	for n := range a.Metrics {
		if _, ok := b.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		x, y := a.Metrics[n], b.Metrics[n]
		ratio := "-"
		if x.Value != 0 {
			ratio = fmt.Sprintf("%.3fx", y.Value/x.Value)
		}
		fmt.Fprintf(w, "%-28s %14.4f %14.4f %-6s %s\n", n, x.Value, y.Value, x.Unit, ratio)
	}
	return nil
}
