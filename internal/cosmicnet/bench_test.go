package cosmicnet

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// benchWords are the payload sizes the codec benchmarks cover: tiny's one
// frame, an odd mid-size, the default chunk, and a whole 512 KB model.
var benchWords = []int{200, 1599, 4096, 65535}

func benchFrame(words int) *Frame {
	p := make([]float64, words)
	for i := range p {
		p[i] = float64(i) * 0.5
	}
	return &Frame{Type: MsgPartial, Seq: 7, From: 3, Weight: 1, Payload: p,
		TraceID: 9, SpanID: 11, ChunkIndex: 0, ChunkCount: 1}
}

// BenchmarkEncode is the codec's send side alone: one data frame into a
// discarding writer.
func BenchmarkEncode(b *testing.B) {
	for _, words := range benchWords {
		b.Run(fmt.Sprint(words), func(b *testing.B) {
			f := benchFrame(words)
			b.SetBytes(int64(f.wireSize()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := WriteFrame(io.Discard, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode is the receive side alone: one data frame out of memory
// into a reused frame.
func BenchmarkDecode(b *testing.B) {
	for _, words := range benchWords {
		b.Run(fmt.Sprint(words), func(b *testing.B) {
			var wire bytes.Buffer
			if err := WriteFrame(&wire, benchFrame(words)); err != nil {
				b.Fatal(err)
			}
			var into Frame
			r := bytes.NewReader(wire.Bytes())
			b.SetBytes(int64(wire.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(wire.Bytes())
				if err := ReadFrameInto(r, &into); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoopback moves one data frame across a real loopback TCP
// connection: Send on one end, RecvInto a reused frame on the other.
func BenchmarkLoopback(b *testing.B) {
	for _, words := range benchWords {
		b.Run(fmt.Sprint(words), func(b *testing.B) {
			tx, rx := tcpPair(b)
			f := benchFrame(words)
			var into Frame
			once := exchange(b, tx, rx, f, &into)
			once() // connection warm, payload buffer sized
			b.SetBytes(int64(f.wireSize()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				once()
			}
		})
	}
}
