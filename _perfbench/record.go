package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runRecord identifies one run: what was measured, with which inputs, on
// which machine and which source. It is printed before the result line.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	// Commit is the git revision when the source is a git checkout; Source
	// digests the Go sources and go.mod files either way.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
	At     string `json:"at"`
	// Samples counts the replies behind the latency figures.
	Samples map[string]int `json:"samples"`
}

func newRunRecord(o runOptions, res *result, root string) *runRecord {
	return &runRecord{
		Workload:   o.spec.name,
		Seed:       o.seed,
		Seconds:    o.window.Seconds(),
		Trace:      o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		Source:     sourceDigest(root),
		At:         time.Now().UTC().Format(time.RFC3339),
		Samples:    res.samples,
	}
}

// cpuModel reads the model name Linux reports; "unknown" elsewhere.
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

// gitCommit returns HEAD's revision, or "none" outside a git checkout.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go and go.mod file under root, in path order,
// skipping hidden directories and test data.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, filepath.ToSlash(rel)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
