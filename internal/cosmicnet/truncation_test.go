package cosmicnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// fullFeatureFrame builds a frame exercising every wire extension at once:
// trace IDs, the chunk extension, text, and a payload large enough that its
// read buffer comes from the pool's upper classes.
func fullFeatureFrame() *Frame {
	p := make([]float64, 1024)
	for i := range p {
		p[i] = float64(i) * 0.5
	}
	return &Frame{
		Type: MsgGroupAggregate, Seq: 3, From: 9, Weight: 2.5,
		Text: "meta", TraceID: 0xabcdef, SpanID: 0x123456,
		ChunkIndex: 2, ChunkCount: 8, ChunkOffset: 8192,
		Payload: p,
	}
}

// TestTruncationAtEveryOffset cuts frame encodings at every byte boundary and
// asserts the reader fails each cut with a clean stream error — never a
// panic, a hang, or a bogus decode. The decode is two reads for a small
// frame (prefix and header, then the rest staged) and three for a large one
// (extensions and text, then the payload in place); the frames are chosen so
// that each read is cut short, is empty, or is the last one, and each cut
// goes through a reader that returns all it has, a reader that returns one
// byte at a time, and a Conn.
func TestTruncationAtEveryOffset(t *testing.T) {
	frames := map[string]*Frame{
		"every extension, text, payload": fullFeatureFrame(),
		"bare header":                    {Type: MsgDone},
		"text only":                      {Type: MsgHello, From: 3, Text: "127.0.0.1:9999"},
		"payload only":                   {Type: MsgModel, Seq: 1, Payload: []float64{1, 2, 3}},
		"chunk extension, no payload":    {Type: MsgPartial, ChunkCount: 1},
		"text and payload, staged":       {Type: MsgModel, Text: "x", TraceID: 1, Payload: make([]float64, 300)},
	}
	readers := map[string]func([]byte) (*Frame, error){
		"exact":    func(b []byte) (*Frame, error) { return ReadFrame(bytes.NewReader(b)) },
		"one-byte": func(b []byte) (*Frame, error) { return ReadFrame(iotest.OneByteReader(bytes.NewReader(b))) },
		"conn":     func(b []byte) (*Frame, error) { return (&Conn{Conn: readOnlyConn{r: bytes.NewReader(b)}}).Recv() },
	}
	for name, f := range frames {
		var enc bytes.Buffer
		if err := WriteFrame(&enc, f); err != nil {
			t.Fatal(err)
		}
		raw := enc.Bytes()
		for via, read := range readers {
			for cut := 0; cut < len(raw); cut++ {
				_, err := read(raw[:cut])
				if err == nil {
					t.Fatalf("%s via %s: cut at byte %d/%d decoded successfully", name, via, cut, len(raw))
				}
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("%s via %s: cut at byte %d/%d: %v, want a stream error", name, via, cut, len(raw), err)
				}
			}
			got, err := read(raw)
			if err != nil {
				t.Fatalf("%s via %s: %v", name, via, err)
			}
			if !sameFrame(got, f) {
				t.Fatalf("%s via %s: full decode corrupted: %+v", name, via, got)
			}
		}
	}
}

// TestTruncatedReadReturnsPoolBuffer: the error path of a truncated payload
// read must still return its scratch to the pool and keep the frame's
// payload for reuse. A leak would cost a fresh scratch and buffer on every
// failed read (>= 2 allocs per attempt); intact, only the frame's text
// allocates (1).
func TestTruncatedReadReturnsPoolBuffer(t *testing.T) {
	var enc bytes.Buffer
	if err := WriteFrame(&enc, fullFeatureFrame()); err != nil {
		t.Fatal(err)
	}
	raw := enc.Bytes()
	cut := raw[:len(raw)/2]
	// Warm the pool class once.
	if _, err := ReadFrame(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(cut)
	var f Frame
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(cut)
		if err := ReadFrameInto(r, &f); err == nil {
			t.Fatal("truncated read succeeded")
		}
	})
	if allocs > 1.5 {
		t.Errorf("truncated read allocates %.1f per attempt; the scratch is leaking from the pool", allocs)
	}
}

// TestCorruptHeaderRejected: corruption the truncation sweep cannot reach —
// length prefixes and header fields that lie about the body.
func TestCorruptHeaderRejected(t *testing.T) {
	var enc bytes.Buffer
	if err := WriteFrame(&enc, fullFeatureFrame()); err != nil {
		t.Fatal(err)
	}
	raw := enc.Bytes()
	mutate := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), raw...)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"length below header", mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b, 5)
		})},
		{"length above cap", mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b, 0xFFFFFFFF)
		})},
		{"text length lies", mutate(func(b []byte) {
			// textLen lives at byte 17 of the header, after the 4-byte
			// length prefix.
			binary.LittleEndian.PutUint32(b[4+17:], 9999)
		})},
		{"payload length wraps 32 bits", mutate(func(b []byte) {
			// payloadLen*8 wraps uint32 at 1<<29; the reader must do the
			// consistency check in 64-bit arithmetic.
			binary.LittleEndian.PutUint32(b[4+21:], 1<<29)
		})},
		{"chunk count zero with chunk flag", mutate(func(b []byte) {
			off := 4 + headerBytes + traceExtBytes
			binary.LittleEndian.PutUint32(b[off+4:], 0)
		})},
		{"chunk index beyond count", mutate(func(b []byte) {
			off := 4 + headerBytes + traceExtBytes
			binary.LittleEndian.PutUint32(b[off:], 8)
		})},
	}
	for _, c := range cases {
		if _, err := ReadFrame(bytes.NewReader(c.b)); err == nil {
			t.Errorf("%s: decoded successfully", c.name)
		}
	}
}
