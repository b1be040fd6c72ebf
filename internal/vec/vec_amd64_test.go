package vec

import "testing"

// TestCPUWidth pins the CPU gate: the 8-lane kernels need AVX-512F and an
// OS that saves the opmask and ZMM state, the 4-lane ones AVX and an OS
// that saves the YMM state; anything less falls back a width.
func TestCPUWidth(t *testing.T) {
	const (
		osxsave, avx = 1 << 27, 1 << 28
		avx512f      = 1 << 16
		xcr0AVX      = 0x07 // x87, SSE, AVX
		xcr0ZMM      = 0xe7 // and opmask, ZMM_Hi256, Hi16_ZMM
	)
	for _, c := range []struct {
		name                      string
		maxLeaf, ecx1, ebx7, xcr0 uint32
		want                      int
	}{
		{"AVX-512F", 0xd, osxsave | avx, avx512f, xcr0ZMM, 8},
		{"AVX-512F, other leaf 7 bits", 0x1b, osxsave | avx | 1<<12, ^uint32(0), 0xff, 8},
		{"AVX-512F missing", 0xd, osxsave | avx, ^uint32(avx512f), xcr0ZMM, 4},
		{"XCR0 without ZMM state", 0xd, osxsave | avx, avx512f, xcr0AVX, 4},
		{"XCR0 without opmask", 0xd, osxsave | avx, avx512f, xcr0ZMM &^ 0x20, 4},
		{"XCR0 without ZMM_Hi256", 0xd, osxsave | avx, avx512f, xcr0ZMM &^ 0x40, 4},
		{"XCR0 without Hi16_ZMM", 0xd, osxsave | avx, avx512f, xcr0ZMM &^ 0x80, 4},
		{"max leaf 6", 6, osxsave | avx, avx512f, xcr0ZMM, 4},
		{"AVX only", 0xd, osxsave | avx, 0, xcr0AVX, 4},
		{"no AVX", 0xd, osxsave, avx512f, xcr0ZMM, 0},
		{"no OSXSAVE", 0xd, avx, avx512f, 0, 0},
		{"XCR0 without AVX state", 0xd, osxsave | avx, avx512f, 0xe3, 0},
		{"XCR0 without SSE state", 0xd, osxsave | avx, avx512f, 0xe5, 0},
		{"max leaf 0", 0, osxsave | avx, avx512f, xcr0ZMM, 0},
	} {
		if got := cpuWidth(c.maxLeaf, c.ecx1, c.ebx7, c.xcr0); got != c.want {
			t.Errorf("%s: %d lanes, want %d", c.name, got, c.want)
		}
	}
	t.Logf("this CPU: %d lanes per instruction", width)
}
