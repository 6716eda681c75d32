package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xar/internal/core"
	"xar/internal/journal"
	"xar/internal/quality"
	"xar/internal/server"
	"xar/internal/telemetry"
	"xar/internal/workload"
)

// buildDirName holds everything the benchmark builds or writes: the Go
// build cache (run.sh), the xarserver binary, server logs and span files.
const buildDirName = ".bench_build"

// repoRoot finds the checkout root — the directory whose go.mod declares
// module xar — from the working directory upwards.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module xar\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod of module xar above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildServer compiles cmd/xarserver of this checkout into the build
// directory. Build time is not part of any metric.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDirName, "xarserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/xarserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build xarserver: %v\n%s", err, out)
	}
	return bin, nil
}

// observersOff turns off every observer flag xarserver ships enabled.
var observersOff = []string{
	"-journal=false", "-quality=false", "-mem-sweep=0", "-profile-interval=0",
	"-trace-sample=0", "-history-interval=0", "-audit-interval=0",
}

// serverProc is a running xarserver subprocess.
type serverProc struct {
	cmd     *exec.Cmd
	base    string
	stderr  *os.File
	exited  chan struct{} // closed once the process has been waited for
	waitErr error
}

// startServer launches bin on a free loopback port with the extra flags
// (none: the shipped defaults, which build the citySeed city), its stderr
// going to a log file in the build directory.
func startServer(bin string, extra ...string) (*serverProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("find a free port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	dir := filepath.Dir(bin)
	logf, err := os.Create(filepath.Join(dir, "xarserver.log"))
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start xarserver: %w", err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, stderr: logf, exited: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// waitHealthy polls /v1/healthz until the server answers 200.
func (p *serverProc) waitHealthy(client *http.Client, timeout time.Duration) (server.HealthResponse, error) {
	var h server.HealthResponse
	deadline := time.Now().Add(timeout)
	for {
		err := getJSON(client, p.base+"/v1/healthz", &h)
		if err == nil {
			return h, nil
		}
		select {
		case <-p.exited:
			return h, fmt.Errorf("xarserver exited before becoming healthy (%v); see %s", p.waitErr, p.stderr.Name())
		default:
		}
		if time.Now().After(deadline) {
			return h, fmt.Errorf("xarserver not healthy after %v: %w", timeout, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// rssPeakMB reads the subprocess's resident-set high-water mark.
func (p *serverProc) rssPeakMB() float64 { return vmHWMMB(p.cmd.Process.Pid) }

// stop terminates the subprocess and waits until it has ended.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
	p.stderr.Close()
}

// vmHWMMB is VmHWM of pid in MB, 0 where /proc does not have it.
func vmHWMMB(pid int) float64 {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// mixInstance is one set-up and round of http_mix against the shipped
// binary: process start → healthy → fleet seeded is the set-up; the warm-up
// and the recorded operations follow over nproc keep-alive connections.
type mixInstance struct {
	s     *sample
	stats httpStats // the measured phase's wire statistics, pooled
}

func httpMixInstance(bin string, seed int64, ops int, rec *recorder, flags ...string) (*mixInstance, error) {
	t0 := time.Now()
	proc, err := startServer(bin, flags...)
	if err != nil {
		return nil, err
	}
	defer proc.stop()
	w, err := buildWorld(mixWorld, seed, false)
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	client := newHTTPClient(conns)
	defer client.CloseIdleConnections()
	health, err := proc.waitHealthy(client, 60*time.Second)
	if err != nil {
		return nil, err
	}
	newTarget := func(s *sample, rec *recorder) mixTarget {
		return newHTTPTarget(proc.base, client, health.EpsilonM, s, rec)
	}
	seeding := seedOverHTTP(newTarget, w.trips)
	setupS := time.Since(t0).Seconds()

	s, targets := mixRound(newTarget, conns, rec, w.trips, seed, ops)
	s.setupS = setupS
	s.absorbFailures(seeding)

	in := &mixInstance{s: s}
	for _, tg := range targets {
		in.stats.add(tg.(*httpTarget).stats)
	}
	// The memory report exists only while the sweeper flag is on.
	var mem core.MemoryReport
	if err := getJSON(client, proc.base+"/v1/memory?sweep=true", &mem); err == nil {
		s.indexBytesPerRide = ratio(float64(mem.IndexBytes), float64(mem.ActiveRides))
	}
	s.rssPeakMB = proc.rssPeakMB()
	return in, nil
}

// seedOverHTTP creates the first mixSeedRides trips as rides over one
// connection. Nothing it measures is kept except failures.
func seedOverHTTP(newTarget func(*sample, *recorder) mixTarget, trips []workload.Trip) *sample {
	s := newSample([numKinds]int{kCreate: mixSeedRides})
	tg := newTarget(s, nil)
	for _, t := range trips[:mixSeedRides] {
		tg.create(t)
	}
	return s
}

func (a *httpStats) add(b httpStats) {
	a.requests += b.requests
	a.status4xx += b.status4xx
	a.status5xx += b.status5xx
	a.reqBytes = append(a.reqBytes, b.reqBytes...)
	a.searchRespBytes = append(a.searchRespBytes, b.searchRespBytes...)
}

// processCPUSeconds is the user+system CPU time this process has used.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// shippedEngineConfig mirrors the request-path observers xarserver wires
// by default — ALT router, telemetry, 1-in-64 tracing, journal, quality
// and the 1-in-8 shadow matcher — for the traced pass's in-process arms.
// The background workers (recorder, auditor, sweeper, profiler) are left
// to the subprocess arms: they are not on a request's path.
func shippedEngineConfig() (core.Config, []server.Option) {
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SampleRate: 64, SlowThreshold: 50 * time.Millisecond})
	jr := journal.New(journal.Config{Registry: reg})
	qc := quality.New(reg)

	cfg := core.DefaultConfig()
	cfg.UseALTPaths = true
	cfg.Telemetry = reg
	cfg.Tracer = tracer
	cfg.SlowOpThreshold = 250 * time.Millisecond
	cfg.Journal = jr
	cfg.Quality = qc
	cfg.ShadowSampleRate = 8
	return cfg, []server.Option{
		server.WithTelemetry(reg), server.WithTracer(tracer), server.WithJournal(jr), server.WithQuality(qc),
	}
}

// engineArm runs the http_mix op list against the engine alone, on one
// goroutine: what the engine spends on the sequence the clients see.
func engineArm(w *world, seed int64, ops int, rec *recorder) (*instance, error) {
	cfg, _ := shippedEngineConfig()
	eng, err := core.NewEngine(w.disc, cfg)
	if err != nil {
		return nil, fmt.Errorf("new engine: %w", err)
	}
	defer eng.Close()
	seeding := newSample([numKinds]int{kCreate: mixSeedRides})
	seedOps := newEngineOps(eng, nil, seeding)
	for _, t := range w.trips[:mixSeedRides] {
		seedOps.create(offerOf(t))
	}
	c0 := eng.Metrics().CandidatesExamined
	s, _ := mixRound(func(s *sample, rec *recorder) mixTarget {
		return &engineTarget{engineOps: newEngineOps(eng, rec, s)}
	}, 1, rec, w.trips, seed, ops)
	s.candidates = eng.Metrics().CandidatesExamined - c0
	s.absorbFailures(seeding)
	eng.ShadowFlush()
	finishEngine(eng, s)
	return &instance{s: s, w: w, eng: eng}, nil
}

// localServer serves handler on a loopback listener of this process.
type localServer struct {
	base string
	srv  *http.Server
	done chan error
}

func serveLocal(handler http.Handler) (*localServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &localServer{base: "http://" + ln.Addr().String(), srv: &http.Server{Handler: handler}, done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

func (l *localServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

var routeKinds = map[string]int{
	"POST /v1/search":     kSearch,
	"POST /v1/bookings":   kBook,
	"POST /v1/rides":      kCreate,
	"POST /v1/track":      kTrack,
	"DELETE /v1/bookings": kCancel,
}

// spanHandler records a span around next.ServeHTTP for every request
// that carries the client's span context.
func spanHandler(next http.Handler, rec *recorder) http.Handler {
	var names [numKinds]string
	for k, name := range kindNames {
		names[k] = "server.handler." + name
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := clock()
		next.ServeHTTP(w, r)
		t1 := clock()
		trace, parent, ok := strings.Cut(r.Header.Get(benchSpanHeader), ",")
		kind, known := routeKinds[r.Method+" "+r.URL.Path]
		if !ok || !known {
			return
		}
		ti, _ := strconv.Atoi(trace)
		pi, _ := strconv.Atoi(parent)
		rec.add(int32(ti), int32(pi), names[kind], t0, t1, 0)
	})
}

// handlerArm runs the op list over nproc connections against handler on
// a loopback listener of this process, the handler wrapped in spans.
func handlerArm(handler http.Handler, eps float64, trips []workload.Trip, seed int64, ops int, rec *recorder, seedFleet bool) (*sample, error) {
	l, err := serveLocal(spanHandler(handler, rec))
	if err != nil {
		return nil, err
	}
	defer l.stop()
	conns := runtime.NumCPU()
	client := newHTTPClient(conns)
	defer client.CloseIdleConnections()
	newTarget := func(s *sample, rec *recorder) mixTarget { return newHTTPTarget(l.base, client, eps, s, rec) }
	seeding := &sample{}
	if seedFleet {
		seeding = seedOverHTTP(newTarget, trips)
	}
	s, _ := mixRound(newTarget, conns, rec, trips, seed, ops)
	s.absorbFailures(seeding)
	return s, nil
}

// noopHandler reads the request and answers an empty search reply: the
// floor any request pays in the generator, net/http and the loopback.
var noopHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body) // a short read only costs connection reuse
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, `{"matches":[]}`+"\n")
})
