package blas

import (
	"os"
	"strings"
	"testing"
)

// TestProbeMatchesCPUInfo checks the CPUID/XGETBV probe against the flags
// Linux reports for the CPU, which already account for the state the OS
// saves: the avx2 tile needs avx2 and fma, the avx512 tile avx512f on top.
// A wrong feature bit or XCR0 mask then fails here instead of silently
// running a slower tile.
func TestProbeMatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "flags" {
			for _, f := range strings.Fields(val) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("/proc/cpuinfo lists no CPU flags")
	}
	want := tileGeneric
	if flags["avx2"] && flags["fma"] {
		want = tileAVX2
		if flags["avx512f"] {
			want = tileAVX512
		}
	}
	if got := probeTile(); got != want {
		t.Fatalf("probeTile() = %s, want %s from /proc/cpuinfo (avx2=%v fma=%v avx512f=%v)",
			got, want, flags["avx2"], flags["fma"], flags["avx512f"])
	}
	t.Logf("probed tile: %s", probedTile)
}
