//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package cosmicnet

// On a little-endian host a []float64's memory already is its wire image
// (IEEE-754 bits, least significant byte first), so a payload crosses the
// codec as a byte view: no conversion pass in either direction.

// stageMax is the largest frame that is staged whole in the scratch buffer:
// it leaves in one write and arrives in one read after the header. Below it
// a copy is cheaper than another trip to the socket (and keeps one write per
// frame on transports that are not a TCP socket); above it the payload moves
// between the socket and the place it lies, nowhere else.
const stageMax = 4096

// stagePayload copies p's wire image into dst.
func stagePayload(dst []byte, p []float64) { copy(dst, floatBytes(p)) }

// unstagePayload fills p from its wire image.
func unstagePayload(p []float64, src []byte) { copy(floatBytes(p), src) }
