package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/server"
)

// engineOptions is the engine configuration of every workload: the
// library defaults, with the cell radius of the drifting-mountain
// stream (edmserved -radius 1 builds the same options).
func engineOptions() edmstream.Options { return edmstream.Options{Radius: driftRadius} }

// sutConfig builds the served configuration the way edmserved does
// with its default flags: 2 ms coalesce window, fsync before ack, a
// checkpoint every 50k points. dataDir empty serves in memory.
func sutConfig(dataDir string) server.Config {
	cfg := server.DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.DataDir = dataDir
	cfg.NewEngine = func() (*edmstream.Clusterer, error) { return edmstream.New(engineOptions()) }
	return cfg
}

// runtimeStats is the SUT process's own account of its Go runtime,
// served on the control listener.
type runtimeStats struct {
	Mallocs      uint64 `json:"mallocs"`
	TotalAlloc   uint64 `json:"total_alloc"`
	NumGC        uint32 `json:"num_gc"`
	PauseTotalNs uint64 `json:"pause_total_ns"`
	CPUNs        int64  `json:"cpu_ns"`
	// HeapLive is the live heap after a forced GC; only read when the
	// request asks for the GC (it runs after the other fields are read,
	// so the forced cycle is not counted in them).
	HeapLive uint64 `json:"heap_live"`
}

func readRuntime(forceGC bool) runtimeStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	st := runtimeStats{
		Mallocs:      m.Mallocs,
		TotalAlloc:   m.TotalAlloc,
		NumGC:        m.NumGC,
		PauseTotalNs: m.PauseTotalNs,
		CPUNs:        cpuNanos(),
	}
	if forceGC {
		runtime.GC()
		runtime.ReadMemStats(&m)
		st.HeapLive = m.HeapAlloc
	}
	return st
}

// cpuNanos is the process's user plus system CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// sutMain is the system under test for the HTTP workloads: the real
// internal/server stack in its own process, so heap, allocation and
// CPU figures belong to it alone. Untraced it serves through
// Server.Start exactly as edmserved does; traced it serves
// Server.Handler through StartDetached on its own listener, wrapped to
// record one handler span per request. A second, private listener
// serves the benchmark's control endpoints. Once serving, it prints
// "ready <data addr> <control addr>" and runs until SIGTERM or SIGKILL.
func sutMain(args []string) error {
	fs := flag.NewFlagSet("sut", flag.ContinueOnError)
	dataDir := fs.String("data-dir", "", "durability directory (empty serves in memory)")
	traced := fs.Bool("trace", false, "record a handler span per request")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := edmstream.New(engineOptions())
	if err != nil {
		return err
	}
	cfg := sutConfig(*dataDir)
	s, err := server.New(c, cfg)
	if err != nil {
		return err
	}
	var addr string
	var spans *tracer
	if *traced {
		spans = newTracer()
		s.StartDetached()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{
			Handler:           handlerSpans(s.Handler(), spans),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       cfg.ReadTimeout,
			WriteTimeout:      cfg.WriteTimeout,
			IdleTimeout:       cfg.IdleTimeout,
		}
		go hs.Serve(ln) //nolint:errcheck // ends with the process
		addr = ln.Addr().String()
	} else {
		if err := s.Start(); err != nil {
			return err
		}
		addr = s.Addr()
	}

	ctl := http.NewServeMux()
	ctl.HandleFunc("GET /runtime", func(w http.ResponseWriter, r *http.Request) {
		writeJSONBody(w, readRuntime(r.URL.Query().Get("gc") == "1"))
	})
	ctl.HandleFunc("GET /spans", func(w http.ResponseWriter, r *http.Request) {
		writeJSONBody(w, spans.take())
	})
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go http.Serve(cln, ctl) //nolint:errcheck // ends with the process

	fmt.Printf("ready %s %s\n", addr, cln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.Shutdown(sctx)
}

func writeJSONBody(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench sut: encoding control response:", err)
	}
}

// handlerSpans wraps the server's handler with one span per request
// that carries a client span id; the handler span's parent is that id.
func handlerSpans(h http.Handler, t *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		id, start := t.begin()
		h.ServeHTTP(w, r)
		if parent != 0 {
			t.end(id, parent, r.Method+" "+r.URL.Path, start)
		}
	})
}
