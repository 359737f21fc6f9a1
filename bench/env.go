package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// environment is the provenance printed above every result: enough to tell
// whether two result files are comparable.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Commit     string  `json:"commit"`
	WALFS      string  `json:"wal_fs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	CalibMs    float64 `json:"host_calib_ms"`
}

func (e environment) String() string {
	return fmt.Sprintf("go=%s GOMAXPROCS=%d nproc=%d commit=%s wal_fs=%s seed=%d seconds=%g host.calib_ms=%.3f",
		e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.Commit, e.WALFS, e.Seed, e.Seconds, e.CalibMs)
}

func readEnvironment(walDir string, seed int64, seconds float64, calibMs float64) environment {
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     gitCommit(),
		WALFS:      fsType(walDir),
		Seed:       seed,
		Seconds:    seconds,
		CalibMs:    calibMs,
	}
}

// gitCommit names the commit under test, or "unknown" where the benchmark
// runs from an exported tree.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		commit += "+dirty"
	}
	return commit
}

// fsType names the filesystem holding dir (fsync cost depends on it).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// workDir creates the run's private scratch directory under bench/out, which
// is inside the checkout and git-ignored.
func workDir(benchDir string) (string, error) {
	root := benchDir + "/out"
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
