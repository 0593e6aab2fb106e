package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const resultsSchema = "ocep-benchmark/1"

// resultsFile is what a benchmark invocation writes and -compare reads:
// the host it ran on and every run it made.
type resultsFile struct {
	Schema string      `json:"schema"`
	Host   hostMeta    `json:"host"`
	Runs   []runResult `json:"runs"`
}

// hostMeta records where numbers came from; numbers from different
// hosts are not comparable.
type hostMeta struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Kernel     string `json:"kernel"`
	GitCommit  string `json:"git_commit"`
	Time       string `json:"time"`
}

func hostInfo() hostMeta {
	return hostMeta{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		GitCommit:  gitCommit("."),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

// gitCommit reads HEAD out of dir/.git without running git, which would
// search the parent directories too: a checkout that is not a repository
// simply has no commit to name.
func gitCommit(dir string) string {
	head := firstLine(filepath.Join(dir, ".git", "HEAD"))
	ref, isRef := strings.CutPrefix(head, "ref: ")
	if !isRef {
		return head
	}
	if c := firstLine(filepath.Join(dir, ".git", ref)); c != "unknown" {
		return c
	}
	packed, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if c, ok := strings.CutSuffix(line, " "+ref); ok {
			return c
		}
	}
	return "unknown"
}

// write puts one run on each line, so that a committed results file
// diffs by run.
func (f *resultsFile) write(path string) error {
	host, err := json.Marshal(f.Host)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"schema\":%q,\n\"host\":%s,\n\"runs\":[\n", f.Schema, host)
	for i, r := range f.Runs {
		run, err := json.Marshal(r)
		if err != nil {
			return err
		}
		b.Write(run)
		if i < len(f.Runs)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	return &f, nil
}
