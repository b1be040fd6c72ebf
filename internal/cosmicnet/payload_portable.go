//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package cosmicnet

import (
	"encoding/binary"
	"math"
)

// On a big-endian host (or one of unknown byte order) the payload is converted
// element by element through the scratch buffer. The wire format is the same.

// stageMax stages every frame: no byte view of a payload is its wire image.
const stageMax = math.MaxInt

// stagePayload writes p's wire image into dst.
func stagePayload(dst []byte, p []float64) {
	for i, v := range p {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
}

// unstagePayload fills p from its wire image.
func unstagePayload(p []float64, src []byte) {
	for i := range p {
		p[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
}
