package vec

// setZMM turns the lane kernels' 8-lane loops on or off, so a test can run
// every width the CPU has, and returns a func that restores the previous
// choice. Turning them on has no effect where the CPU lacks AVX-512F. It
// must not race with a kernel call.
func setZMM(on bool) (restore func()) {
	prev := zmm
	zmm = on && haveAVX512
	return func() { zmm = prev }
}

// impl is one implementation of the lane kernels: the Go loops, or the AVX
// kernels at a width.
type impl struct {
	name  string // "portable", "avx" or "avx512"
	lanes int    // per instruction: 1, 4 or 8
}

// use switches the kernels to im and returns a func that restores the
// previous choice.
func (im impl) use() (restore func()) {
	restoreAVX, restoreZMM := SetAccelerated(im.lanes > 1), setZMM(im.lanes == 8)
	return func() { restoreZMM(); restoreAVX() }
}

// impls are the implementations this CPU can run, widest first: avx512
// with AVX-512F, avx with AVX, and portable everywhere.
func impls() []impl {
	var all []impl
	if haveAVX512 {
		all = append(all, impl{"avx512", 8})
	}
	if haveAVX {
		all = append(all, impl{"avx", 4})
	}
	return append(all, impl{"portable", 1})
}
