package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// host fingerprints the machine and source a result was measured on.
// Results are only comparable when CPU, core count, GOMAXPROCS and Go
// version agree (sameMachine); Rev and Dirty say which code ran.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Rev        string `json:"rev"`
	Dirty      string `json:"dirty"`
}

func (h host) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s dirty=%s",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Rev, h.Dirty)
}

func (h host) sameMachine(o host) bool {
	return h.CPU == o.CPU && h.NumCPU == o.NumCPU && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion
}

func fingerprint() host {
	h := host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Rev:        "unknown",
		Dirty:      "unknown",
	}
	// Outside a git checkout (an exported tree) the revision stays
	// unknown.
	if rev, err := git("rev-parse", "--short=12", "HEAD"); err == nil {
		h.Rev = rev
		if st, err := git("status", "--porcelain", "--untracked-files=no"); err == nil {
			h.Dirty = fmt.Sprint(st != "")
		}
	}
	return h
}

func git(args ...string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", args...).Output()
	return strings.TrimSpace(string(out)), err
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
