package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// workRoot holds the runs' data directories, inside the directory the
// benchmark is run from.
const workRoot = ".perfbench-work"

// provenance is the header printed before every result.
type provenance struct {
	Schema        string  `json:"schema"`
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Traced        bool    `json:"traced"`
	GitRevision   string  `json:"git_revision"`
	GitDirty      string  `json:"git_dirty"`
	GoVersion     string  `json:"go_version"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"nproc"`
	CPUModel      string  `json:"cpu_model"`
	Params        string  `json:"workload_params"`
	ServerConfig  string  `json:"server_config"`
	EngineOptions string  `json:"engine_options"`
}

func newProvenance(w workload, seed int64, seconds float64, traced bool) provenance {
	rev, dirty := gitState()
	p := provenance{
		Schema:        "perfbench/v1",
		Workload:      w.name,
		Seed:          seed,
		Seconds:       seconds,
		Traced:        traced,
		GitRevision:   rev,
		GitDirty:      dirty,
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		CPUModel:      cpuModel(),
		EngineOptions: fmt.Sprintf("%+v", engineOptions()),
	}
	switch w.name {
	case "ingest-durable":
		p.Params = fmt.Sprintf("%+v writers=%d batch=%d", ingestFull, ingestWriters, ingestBatch)
		p.ServerConfig = printableConfig("<fresh temp dir>")
	case "serve-mixed":
		p.Params = fmt.Sprintf("%+v", serveFull)
		p.ServerConfig = printableConfig("")
	case "engine-drift":
		p.Params = fmt.Sprintf("%+v batch=%d snapshot_every=%d", engineFull, engineBatch, engineSnapshotEvery)
	}
	return p
}

// printableConfig renders the SUT's server.Config; the engine factory
// is a function and prints as its presence only.
func printableConfig(dataDir string) string {
	cfg := sutConfig(dataDir)
	hasFactory := cfg.NewEngine != nil
	cfg.NewEngine = nil
	return fmt.Sprintf("%+v (NewEngine set: %v)", cfg, hasFactory)
}

func (p provenance) json() string {
	raw, err := json.Marshal(p)
	if err != nil {
		return fmt.Sprintf("{\"error\": %q}", err.Error())
	}
	return string(raw)
}

// gitState returns the checkout's revision and whether it has local
// changes, or "unknown" outside a git work tree. Git is not allowed to
// look above the current directory.
func gitState() (rev, dirty string) {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown", "unknown"
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	rev, err = git("rev-parse", "HEAD")
	if err != nil {
		return "unknown", "unknown"
	}
	st, err := git("status", "--porcelain")
	if err != nil {
		return rev, "unknown"
	}
	return rev, fmt.Sprint(st != "")
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
