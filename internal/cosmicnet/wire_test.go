package cosmicnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []*Frame{
		{Type: MsgHello, From: 3, Text: "127.0.0.1:9999"},
		{Type: MsgModel, Seq: 42, Payload: []float64{1, -2.5, math.Pi}},
		{Type: MsgPartial, Seq: 7, From: 2, Weight: 3.5, Payload: []float64{0.25}},
		{Type: MsgDone},
		{Type: MsgGroupAggregate, Seq: 1, From: 1, Weight: 4, Payload: make([]float64, 10000)},
		{Type: MsgModel, Seq: 3, Payload: []float64{1}, TraceID: 0xdeadbeefcafe, SpanID: 0x1234},
		{Type: MsgPartial, Seq: 3, From: 5, Weight: 1, TraceID: 1, SpanID: 1 << 63, Text: "x"},
		{Type: MsgStats, From: 2, Text: `{"node":2}`},
	}
	for _, f := range frames {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if f.Payload == nil {
			f.Payload = []float64{}
		}
		if !reflect.DeepEqual(f, got) {
			t.Errorf("round trip mismatch:\n sent %+v\n got  %+v", f, got)
		}
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	check := func(seq, from uint32, weight float64, payload []float64, text string, traceID, spanID uint64) bool {
		if math.IsNaN(weight) {
			return true
		}
		for _, v := range payload {
			if math.IsNaN(v) {
				return true
			}
		}
		f := &Frame{Type: MsgPartial, Seq: seq, From: from, Weight: weight, Payload: payload, Text: text,
			TraceID: traceID, SpanID: spanID}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		if got.Seq != seq || got.From != from || got.Weight != weight || got.Text != text {
			return false
		}
		if got.TraceID != traceID || got.SpanID != spanID {
			return false
		}
		if len(got.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if got.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// The untraced half of the space, explicitly: trace/span zero must take
	// the legacy encoding path.
	untraced := func(seq, from uint32, payload []float64) bool {
		for _, v := range payload {
			if math.IsNaN(v) {
				return true
			}
		}
		f := &Frame{Type: MsgModel, Seq: seq, From: from, Payload: payload}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			return false
		}
		if buf.Bytes()[4]&flagTrace != 0 {
			return false // untraced frame must not set the extension flag
		}
		got, err := ReadFrame(&buf)
		return err == nil && got.TraceID == 0 && got.SpanID == 0 && got.Seq == seq
	}
	if err := quick.Check(untraced, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// readLegacyFrame is a copy of the pre-trace reader: fixed 25-byte header,
// no extension awareness. It stands in for an old binary on the other end
// of the connection.
func readLegacyFrame(r io.Reader) (*Frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	total := binary.LittleEndian.Uint32(lenBuf[:])
	if total < headerBytes || total > MaxFrameBytes {
		return nil, fmt.Errorf("bad frame length %d", total)
	}
	buf := make([]byte, total)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	f := &Frame{
		Type:   MsgType(buf[0]),
		Seq:    binary.LittleEndian.Uint32(buf[1:]),
		From:   binary.LittleEndian.Uint32(buf[5:]),
		Weight: math.Float64frombits(binary.LittleEndian.Uint64(buf[9:])),
	}
	textLen := binary.LittleEndian.Uint32(buf[17:])
	payloadLen := binary.LittleEndian.Uint32(buf[21:])
	if uint32(len(buf)) != headerBytes+textLen+payloadLen*8 {
		return nil, fmt.Errorf("inconsistent frame")
	}
	f.Text = string(buf[headerBytes : headerBytes+textLen])
	f.Payload = make([]float64, payloadLen)
	off := headerBytes + int(textLen)
	for i := range f.Payload {
		f.Payload[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	return f, nil
}

// TestOldReaderNewWriterCompatibility: a new writer's untraced frames are
// byte-identical to the legacy format, so a pre-trace reader parses them.
func TestOldReaderNewWriterCompatibility(t *testing.T) {
	check := func(seq, from uint32, weight float64, payload []float64, text string) bool {
		if math.IsNaN(weight) {
			return true
		}
		for _, v := range payload {
			if math.IsNaN(v) {
				return true
			}
		}
		f := &Frame{Type: MsgPartial, Seq: seq, From: from, Weight: weight, Payload: payload, Text: text}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			return false
		}
		got, err := readLegacyFrame(&buf)
		if err != nil {
			return false
		}
		if got.Seq != seq || got.From != from || got.Weight != weight || got.Text != text {
			return false
		}
		for i := range payload {
			if got.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// And a traced frame is visibly not legacy: the flag bit is set and the
	// extension bytes sit between the fixed header and the text.
	f := &Frame{Type: MsgModel, Seq: 9, TraceID: 0xa1b2c3d4e5f60708, SpanID: 0x1122334455667788, Text: "hi"}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if raw[4]&flagTrace == 0 {
		t.Fatal("traced frame missing extension flag")
	}
	if got := binary.LittleEndian.Uint64(raw[4+headerBytes:]); got != f.TraceID {
		t.Errorf("trace ID at extension offset = %#x, want %#x", got, f.TraceID)
	}
	if got := binary.LittleEndian.Uint64(raw[4+headerBytes+8:]); got != f.SpanID {
		t.Errorf("span ID at extension offset = %#x, want %#x", got, f.SpanID)
	}
	if got := string(raw[4+headerBytes+traceExtBytes:]); got != "hi" {
		t.Errorf("text after extension = %q", got)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	// Length below the header size.
	var buf bytes.Buffer
	buf.Write([]byte{1, 0, 0, 0})
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("expected error for undersized frame")
	}
	// Length exceeding the cap.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("expected error for oversized frame")
	}
	// Inconsistent inner lengths.
	f := &Frame{Type: MsgModel, Payload: []float64{1, 2}}
	buf.Reset()
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4+21] = 0xee // corrupt the text length
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Error("expected error for inconsistent frame")
	}
	// Truncated stream.
	if _, err := ReadFrame(bytes.NewReader(raw[:8])); err == nil {
		t.Error("expected error for truncated frame")
	}
}

func TestChunkedFrameRoundTrip(t *testing.T) {
	frames := []*Frame{
		{Type: MsgPartial, Seq: 4, From: 2, Weight: 1, ChunkIndex: 0, ChunkCount: 3, ChunkOffset: 0,
			Payload: []float64{1, 2, 3, 4}},
		{Type: MsgPartial, Seq: 4, From: 2, Weight: 1, ChunkIndex: 2, ChunkCount: 3, ChunkOffset: 8,
			Payload: []float64{9}},
		{Type: MsgGroupAggregate, Seq: 1, From: 1, Weight: 3, ChunkIndex: 1, ChunkCount: 2, ChunkOffset: 4096,
			Payload: make([]float64, 4096), TraceID: 77, SpanID: 12},
		{Type: MsgPartial, ChunkIndex: 0, ChunkCount: 1}, // empty chunk payload
	}
	for _, f := range frames {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if f.Payload == nil {
			f.Payload = []float64{}
		}
		if !reflect.DeepEqual(f, got) {
			t.Errorf("chunked round trip mismatch:\n sent %+v\n got  %+v", f, got)
		}
		if !got.Chunked() {
			t.Errorf("decoded chunk frame not Chunked(): %+v", got)
		}
	}
}

func TestChunkedFrameRoundTripProperty(t *testing.T) {
	check := func(seq, from, count, index, offset uint32, payload []float64, traceID uint64) bool {
		for _, v := range payload {
			if math.IsNaN(v) {
				return true
			}
		}
		if count == 0 {
			count = 1
		}
		index %= count
		f := &Frame{Type: MsgPartial, Seq: seq, From: from, Weight: 1, Payload: payload,
			ChunkIndex: index, ChunkCount: count, ChunkOffset: offset, TraceID: traceID}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		if got.ChunkIndex != index || got.ChunkCount != count || got.ChunkOffset != offset {
			return false
		}
		if got.TraceID != traceID || got.Seq != seq || len(got.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if got.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// The unchunked half of the space: chunk count zero must take the legacy
	// encoding path, flag clear.
	unchunked := func(seq uint32, payload []float64) bool {
		for _, v := range payload {
			if math.IsNaN(v) {
				return true
			}
		}
		f := &Frame{Type: MsgPartial, Seq: seq, Weight: 1, Payload: payload}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			return false
		}
		if buf.Bytes()[4]&flagChunk != 0 {
			return false
		}
		got, err := ReadFrame(&buf)
		return err == nil && !got.Chunked() && got.ChunkOffset == 0
	}
	if err := quick.Check(unchunked, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestOldReaderRejectsChunkedFrames: the compatibility contract is that an
// old binary visibly rejects (rather than silently misparses) frames
// carrying the chunk extension, mirroring the trace-flag discipline.
func TestOldReaderRejectsChunkedFrames(t *testing.T) {
	f := &Frame{Type: MsgPartial, Seq: 5, From: 3, Weight: 1,
		ChunkIndex: 1, ChunkCount: 4, ChunkOffset: 4096, Payload: []float64{1, 2}}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	if _, err := readLegacyFrame(&buf); err == nil {
		t.Fatal("legacy reader accepted a chunk-flagged frame")
	}
	// Chunk + trace combined must also be rejected.
	f.TraceID, f.SpanID = 9, 9
	buf.Reset()
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	if _, err := readLegacyFrame(&buf); err == nil {
		t.Fatal("legacy reader accepted a chunk+trace frame")
	}
}

// TestChunkExtensionLayout pins the wire layout: trace extension first,
// chunk extension second, text after both.
func TestChunkExtensionLayout(t *testing.T) {
	f := &Frame{Type: MsgModel, Seq: 9, TraceID: 0xa1, SpanID: 0xb2,
		ChunkIndex: 3, ChunkCount: 7, ChunkOffset: 12288, Text: "hi"}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if raw[4]&flagTrace == 0 || raw[4]&flagChunk == 0 {
		t.Fatalf("type byte %#x missing extension flags", raw[4])
	}
	chunkOff := 4 + headerBytes + traceExtBytes
	if got := binary.LittleEndian.Uint32(raw[chunkOff:]); got != 3 {
		t.Errorf("chunk index on wire = %d, want 3", got)
	}
	if got := binary.LittleEndian.Uint32(raw[chunkOff+4:]); got != 7 {
		t.Errorf("chunk count on wire = %d, want 7", got)
	}
	if got := binary.LittleEndian.Uint32(raw[chunkOff+8:]); got != 12288 {
		t.Errorf("chunk offset on wire = %d, want 12288", got)
	}
	if got := string(raw[chunkOff+chunkExtBytes:]); got != "hi" {
		t.Errorf("text after chunk extension = %q", got)
	}
}

func TestWriteFrameRejectsBadChunkFields(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Type: MsgPartial, ChunkIndex: 2, ChunkCount: 2}); err == nil {
		t.Error("expected error for chunk index >= count")
	}
	if err := WriteFrame(&buf, &Frame{Type: MsgPartial, ChunkIndex: 1}); err == nil {
		t.Error("expected error for chunk index without count")
	}
	if err := WriteFrame(&buf, &Frame{Type: MsgPartial, ChunkOffset: 8}); err == nil {
		t.Error("expected error for chunk offset without count")
	}
}

func TestReadFrameRejectsBadChunkExtension(t *testing.T) {
	f := &Frame{Type: MsgPartial, ChunkIndex: 1, ChunkCount: 4, Payload: []float64{1}}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Zero out the chunk count on the wire: index 1 of count 0 is invalid.
	binary.LittleEndian.PutUint32(raw[4+headerBytes+4:], 0)
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Error("expected error for chunk count 0 with flag set")
	}
}

// TestReadFrameRejectsOverflowingPayloadLength crafts a frame whose payload
// length field wraps uint32 multiplication (payloadLen*8 ≡ 0 mod 2^32): a
// 32-bit consistency check would accept it and the decode loop would run
// off the buffer. The reader must reject it as inconsistent.
func TestReadFrameRejectsOverflowingPayloadLength(t *testing.T) {
	raw := make([]byte, 4+headerBytes)
	binary.LittleEndian.PutUint32(raw[0:], headerBytes) // total = bare header
	raw[4] = byte(MsgModel)
	binary.LittleEndian.PutUint32(raw[4+17:], 0)     // textLen
	binary.LittleEndian.PutUint32(raw[4+21:], 1<<29) // payloadLen*8 wraps to 0
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected error for uint32-overflowing payload length")
	}
}

func TestConfigurableFrameCap(t *testing.T) {
	defer SetMaxFrameBytes(0) // restore default
	SetMaxFrameBytes(256)
	if FrameCap() != 256 {
		t.Fatalf("FrameCap() = %d after SetMaxFrameBytes(256)", FrameCap())
	}
	big := &Frame{Type: MsgModel, Payload: make([]float64, 1024)}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, big); err == nil {
		t.Error("expected writer to enforce the cap")
	}
	// A frame written under a looser cap must be rejected by a tighter
	// reader before any allocation.
	SetMaxFrameBytes(1 << 20)
	buf.Reset()
	if err := WriteFrame(&buf, big); err != nil {
		t.Fatal(err)
	}
	SetMaxFrameBytes(256)
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("expected reader to enforce the cap")
	}
	SetMaxFrameBytes(0)
	if FrameCap() != MaxFrameBytes {
		t.Errorf("FrameCap() = %d after reset, want default", FrameCap())
	}
}

// TestFrameIOAllocs enforces the package-level codec's contract: with a warm
// scratch pool and a reused frame, encoding and decoding a data frame
// allocate nothing. (A Conn does not use the pool at all; see
// TestConnSteadyStateAllocs.)
func TestFrameIOAllocs(t *testing.T) {
	f := &Frame{Type: MsgPartial, Seq: 1, From: 2, Weight: 1,
		ChunkIndex: 0, ChunkCount: 2, ChunkOffset: 0, Payload: make([]float64, 4096)}
	var enc bytes.Buffer
	if err := WriteFrame(&enc, f); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), enc.Bytes()...)

	sendAllocs := testing.AllocsPerRun(200, func() {
		if err := WriteFrame(io.Discard, f); err != nil {
			t.Fatal(err)
		}
	})
	if sendAllocs > 0 {
		t.Errorf("send allocates %.1f per frame, want 0", sendAllocs)
	}

	var into Frame
	r := bytes.NewReader(raw)
	recvAllocs := testing.AllocsPerRun(200, func() {
		r.Reset(raw)
		if err := ReadFrameInto(r, &into); err != nil {
			t.Fatal(err)
		}
	})
	if recvAllocs > 0 {
		t.Errorf("recv allocates %.1f per frame, want 0", recvAllocs)
	}
	if len(into.Payload) != 4096 || into.ChunkCount != 2 {
		t.Errorf("decoded frame = %+v", &into)
	}
}

// TestRecvIntoOverwritesEveryField: a reused Frame must not leak the
// previous frame's extension fields into the next decode.
func TestRecvIntoOverwritesEveryField(t *testing.T) {
	first := &Frame{Type: MsgPartial, Seq: 1, From: 2, Weight: 3, Text: "x",
		TraceID: 7, SpanID: 8, ChunkIndex: 1, ChunkCount: 2, ChunkOffset: 4, Payload: []float64{1, 2}}
	second := &Frame{Type: MsgAck, Seq: 9}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, first); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, second); err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := ReadFrameInto(&buf, &f); err != nil {
		t.Fatal(err)
	}
	if err := ReadFrameInto(&buf, &f); err != nil {
		t.Fatal(err)
	}
	if f.TraceID != 0 || f.SpanID != 0 || f.Chunked() || f.ChunkOffset != 0 ||
		f.Text != "" || f.Weight != 0 || len(f.Payload) != 0 {
		t.Errorf("stale fields after RecvInto reuse: %+v", &f)
	}
}

func TestPayloadPool(t *testing.T) {
	p := GetPayload(128)
	if len(p) != 128 {
		t.Fatalf("GetPayload(128) length %d", len(p))
	}
	for i := range p {
		p[i] = float64(i)
	}
	PutPayload(p)
	q := GetPayload(64)
	if len(q) != 64 {
		t.Fatalf("GetPayload(64) length %d", len(q))
	}
	PutPayload(q)
	PutPayload(nil) // must not panic
}

func TestLoopbackConn(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan *Frame, 1)
	go func() {
		conn, err := ln.AcceptConn()
		if err != nil {
			done <- nil
			return
		}
		defer conn.Close()
		f, err := conn.Recv()
		if err != nil {
			done <- nil
			return
		}
		_ = conn.Send(&Frame{Type: MsgAck, Seq: f.Seq})
		done <- f
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(&Frame{Type: MsgModel, Seq: 9, Payload: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	ack, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != MsgAck || ack.Seq != 9 {
		t.Errorf("ack = %+v", ack)
	}
	if f := <-done; f == nil || len(f.Payload) != 3 {
		t.Errorf("server frame = %+v", f)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	if MsgModel.String() != "model" || MsgType(99).String() == "" {
		t.Error("bad MsgType strings")
	}
}

func TestConnByteAccounting(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan int64, 1)
	go func() {
		conn, err := ln.AcceptConn()
		if err != nil {
			done <- -1
			return
		}
		defer conn.Close()
		if _, err := conn.Recv(); err != nil {
			done <- -1
			return
		}
		done <- conn.BytesReceived()
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(&Frame{Type: MsgModel, Payload: make([]float64, 100)}); err != nil {
		t.Fatal(err)
	}
	sent := c.BytesSent()
	if sent < 800 { // 100 float64s plus framing
		t.Errorf("sent %d bytes, expected at least the payload", sent)
	}
	if got := <-done; got != sent {
		t.Errorf("receiver counted %d bytes, sender %d", got, sent)
	}
}
