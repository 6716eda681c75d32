package profile

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// allocForProfile keeps a named symbol alive in the heap profile.
var profileTestSink [][]byte

func allocForProfile() {
	for i := 0; i < 64; i++ {
		profileTestSink = append(profileTestSink, make([]byte, 64<<10))
	}
}

// pprofTool runs `go tool pprof args...` and returns its output.
func pprofTool(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"tool", "pprof"}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// capturesAroundAlloc returns two captures bracketing one call to
// allocForProfile, taken while a goroutine spins so the cpu window has
// samples, and a function that writes a capture's blob to a file.
func capturesAroundAlloc(t *testing.T) (c1, c2 *Capture, write func(*Capture, string) string) {
	t.Helper()
	p := New(Config{CPUWindow: 100 * time.Millisecond})
	t.Cleanup(p.Close)
	stop := make(chan struct{})
	go func() {
		x := 0
		for {
			select {
			case <-stop:
				return
			default:
				x++
			}
		}
	}()
	// The runtime's heap profile reflects the most recently completed
	// GC cycle; force one before each capture so the pair brackets
	// exactly the allocation below.
	runtime.GC()
	c1 = p.CaptureNow()
	allocForProfile()
	profileTestSink = nil
	runtime.GC()
	c2 = p.CaptureNow()
	close(stop)

	dir := t.TempDir()
	write = func(c *Capture, kind string) string {
		path := filepath.Join(dir, strconv.FormatUint(c.ID, 10)+"-"+kind+".pprof")
		if err := os.WriteFile(path, c.Raw(kind), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	return c1, c2, write
}

// allocFlat returns allocForProfile's flat bytes in a `go tool pprof
// -unit=B -nodefraction=0 -top` listing, failing the test if the
// function is missing. pprof's default node cut drops every node under
// 0.5 % of the total, and a test binary's other allocations can push
// allocForProfile's share under it; -nodefraction=0 keeps every node.
func allocFlat(t *testing.T, out string) int64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 6 && f[5] == "xar/internal/profile.allocForProfile" { // may be followed by "(inline)"
			flat, err := strconv.ParseInt(strings.TrimSuffix(f[0], "B"), 10, 64)
			if err != nil {
				t.Fatalf("allocForProfile flat %q: %v\n%s", f[0], err, out)
			}
			return flat
		}
	}
	t.Fatalf("allocForProfile missing from the pprof top:\n%s", out)
	return 0
}

// TestParseRuntimeHeapProfile: every blob a capture holds is a profile
// the runtime wrote that loads in `go tool pprof`, and the heap blob
// attributes allocForProfile's 4 MiB to it.
func TestParseRuntimeHeapProfile(t *testing.T) {
	_, c2, write := capturesAroundAlloc(t)
	if len(c2.Kinds) != len(Kinds) {
		t.Errorf("capture %d holds %v, want %v", c2.ID, c2.Kinds, Kinds)
	}
	for _, kind := range c2.Kinds {
		if out := pprofTool(t, "-top", "-nodecount=3", write(c2, kind)); !strings.Contains(out, "flat") {
			t.Errorf("%s: unexpected pprof output:\n%s", kind, out)
		}
	}
	out := pprofTool(t, "-unit=B", "-sample_index=alloc_space", "-nodefraction=0", "-top", write(c2, "heap"))
	if flat := allocFlat(t, out); flat < 1<<20 {
		t.Fatalf("allocForProfile flat %d B, want ≥ 1 MiB:\n%s", flat, out)
	}
}

// TestHeapAllocIsDelta: a diff of two captures' heap blobs
// (-diff_base) attributes the allocation made between them to the
// function that made it — the interval delta the profiler leaves to
// the toolchain.
func TestHeapAllocIsDelta(t *testing.T) {
	c1, c2, write := capturesAroundAlloc(t)
	out := pprofTool(t, "-unit=B", "-sample_index=alloc_space", "-nodefraction=0", "-diff_base="+write(c1, "heap"), "-top", write(c2, "heap"))
	if flat := allocFlat(t, out); flat < 1<<20 {
		t.Fatalf("allocForProfile flat %d B, want ≥ 1 MiB:\n%s", flat, out)
	}
}
