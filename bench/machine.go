package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// machine is the fingerprint every result carries: a rate means
// nothing without the machine, core count included, it was taken on.
// Served traffic crosses the host's loopback interface only, and the
// 4096-host fabric is beyond the paper's sizes: its model is not
// validated against any reference.
type machine struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	ChildProcs int    `json:"child_gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Network    string `json:"network"`
}

func fingerprint() machine {
	m := machine{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), ChildProcs: min(2, runtime.NumCPU()),
		CPUModel: "unknown", Kernel: "unknown", Commit: "unknown",
		Network: "loopback only",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(raw))
	}
	// go run does not stamp the binary with the revision; ask git, which
	// answers in a developer's clone and not in the driver's checkout.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}
