package cosmicnet

import (
	"bytes"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"testing"
)

// goldenFrames are the frames whose encodings testdata/golden holds. The
// files were written by the codec that converted payloads element by element
// (the commit before the byte-view codec), so matching them proves the wire
// format did not move.
func goldenFrames() map[string]*Frame {
	return map[string]*Frame{
		"full":    fullFeatureFrame(),
		"plain":   {Type: MsgModel, Seq: 42, From: 1, Payload: []float64{1, -2.5, 3.141592653589793, 0}},
		"traced":  {Type: MsgPartial, Seq: 7, From: 2, Weight: 3.5, Payload: []float64{0.25, 1e-300}, TraceID: 0xdeadbeefcafe, SpanID: 0x1234},
		"chunked": {Type: MsgGroupAggregate, Seq: 9, From: 1, Weight: 4, Payload: []float64{9, 8, 7}, ChunkIndex: 2, ChunkCount: 3, ChunkOffset: 8192},
	}
}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name+".bin"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameFrame compares two frames field by field, floats by their bits, so NaN
// payloads and signed zeros count.
func sameFrame(a, b *Frame) bool {
	if a.Type != b.Type || a.Seq != b.Seq || a.From != b.From || a.Text != b.Text ||
		math.Float64bits(a.Weight) != math.Float64bits(b.Weight) ||
		a.TraceID != b.TraceID || a.SpanID != b.SpanID ||
		a.ChunkIndex != b.ChunkIndex || a.ChunkCount != b.ChunkCount || a.ChunkOffset != b.ChunkOffset ||
		len(a.Payload) != len(b.Payload) {
		return false
	}
	for i := range a.Payload {
		if math.Float64bits(a.Payload[i]) != math.Float64bits(b.Payload[i]) {
			return false
		}
	}
	return true
}

// writeOnlyConn is a net.Conn that is not a TCP socket: a vectored write
// reaches it as separate Write calls, as it does the chaos fabric and the
// benchmark's timing decorator.
type writeOnlyConn struct {
	net.Conn
	buf     bytes.Buffer
	writes  int
	onWrite func() // when set, runs before each write lands
}

func (c *writeOnlyConn) Write(p []byte) (int, error) {
	if c.onWrite != nil {
		c.onWrite()
	}
	c.writes++
	return c.buf.Write(p)
}

// readOnlyConn feeds a Conn's receive side from memory.
type readOnlyConn struct {
	net.Conn
	r io.Reader
}

func (c readOnlyConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// TestGoldenBytes: every golden frame encodes to exactly the recorded bytes,
// through the package-level writer and through Conn.Send, and the recorded
// bytes decode back to the frame. "full" is large enough to leave as head +
// payload view; the others are staged whole.
func TestGoldenBytes(t *testing.T) {
	for name, f := range goldenFrames() {
		want := readGolden(t, name)
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: WriteFrame produced %d bytes that differ from the golden %d", name, buf.Len(), len(want))
		}
		wc := &writeOnlyConn{}
		c := &Conn{Conn: wc}
		if err := c.Send(f); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wc.buf.Bytes(), want) {
			t.Errorf("%s: Conn.Send bytes differ from the golden", name)
		}
		if c.BytesSent() != int64(len(want)) {
			t.Errorf("%s: BytesSent = %d, want %d", name, c.BytesSent(), len(want))
		}
		wantWrites := 1
		if len(want) > stageMax {
			wantWrites = 2 // head, then the payload view
		}
		if wc.writes != wantWrites {
			t.Errorf("%s: %d writes for a %d-byte frame, want %d", name, wc.writes, len(want), wantWrites)
		}
		got, err := ReadFrame(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameFrame(got, f) {
			t.Errorf("%s: golden decoded to %+v", name, got)
		}
	}
}

// TestPayloadBitsSurviveTheWire: the byte-view codec must move payload bits
// untouched — NaNs with non-canonical mantissas (quiet and signalling, either
// sign), infinities, negative zero and denormals — on both the staged and
// the vectored path.
func TestPayloadBitsSurviveTheWire(t *testing.T) {
	odd := []uint64{
		0x7ff8000000000000, 0x7ff8000000000001, 0x7ff0000000000001, 0xfff8deadbeef0001, 0xfff7ffffffffffff,
		0x7ff0000000000000, 0xfff0000000000000, 0x8000000000000000, 0,
		1, 0x000fffffffffffff, 0x800fffffffffffff, 0x0010000000000000,
	}
	for _, words := range []int{len(odd), 4096} {
		p := make([]float64, words)
		for i := range p {
			p[i] = math.Float64frombits(odd[i%len(odd)])
		}
		f := &Frame{Type: MsgPartial, Weight: math.Float64frombits(odd[3]), Payload: p}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		c := &Conn{Conn: readOnlyConn{r: &buf}}
		var got Frame
		if err := c.RecvInto(&got); err != nil {
			t.Fatal(err)
		}
		if !sameFrame(&got, f) {
			t.Errorf("%d words: payload bits changed across the wire", words)
		}
	}
}

// FuzzReadFrame feeds the decoder hostile bytes: it must never panic, never
// size anything beyond the frame cap, and what it accepts must re-encode to
// bytes that decode to the same frame (and re-encode to the same bytes).
func FuzzReadFrame(f *testing.F) {
	for name := range goldenFrames() {
		f.Add(readGolden(f, name))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	const fuzzCap = 1 << 16
	SetMaxFrameBytes(fuzzCap)
	f.Cleanup(func() { SetMaxFrameBytes(0) })
	f.Fuzz(func(t *testing.T, raw []byte) {
		var got Frame
		if err := ReadFrameInto(bytes.NewReader(raw), &got); err != nil {
			if len(got.Payload)*8 > fuzzCap {
				t.Fatalf("rejected frame left a %d-word payload behind (cap %d bytes)", len(got.Payload), fuzzCap)
			}
			return
		}
		if len(got.Payload)*8+len(got.Text) > fuzzCap {
			t.Fatalf("accepted frame holds %d payload words and %d text bytes, over the cap", len(got.Payload), len(got.Text))
		}
		var enc bytes.Buffer
		if err := WriteFrame(&enc, &got); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		again, err := ReadFrame(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !sameFrame(again, &got) {
			t.Fatalf("decode∘encode changed the frame:\n first %+v\n again %+v", &got, again)
		}
		var enc2 bytes.Buffer
		if err := WriteFrame(&enc2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatal("encode∘decode changed the bytes")
		}
	})
}

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t testing.TB) (a, b *Conn) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *Conn, 1)
	go func() {
		c, _ := ln.AcceptConn()
		accepted <- c
	}()
	a, err = Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if b = <-accepted; b == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// pipePair is tcpPair over net.Pipe: a transport with no vectored write.
func pipePair(t testing.TB) (a, b *Conn) {
	pa, pb := net.Pipe()
	t.Cleanup(func() { pa.Close(); pb.Close() })
	return &Conn{Conn: pa}, &Conn{Conn: pb}
}

// exchange sends f on a from a helper goroutine while the caller receives it
// on b, and returns a function doing one such exchange. Channels carry the
// hand-off so the loop itself allocates nothing.
func exchange(t testing.TB, a, b *Conn, f, into *Frame) func() {
	req, done := make(chan struct{}), make(chan error)
	go func() {
		for range req {
			done <- a.Send(f)
		}
	}()
	t.Cleanup(func() { close(req) })
	return func() {
		req <- struct{}{}
		if err := b.RecvInto(into); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestConnSteadyStateAllocs pins the data plane's contract: once a
// connection is warm, sending a data frame and receiving it into a reused
// frame allocate nothing — staged or vectored, TCP socket or not. Neither
// side draws on a sync.Pool, so the pin also holds under the race detector.
func TestConnSteadyStateAllocs(t *testing.T) {
	pairs := map[string]func(testing.TB) (*Conn, *Conn){"tcp": tcpPair, "pipe": pipePair}
	for name, pair := range pairs {
		for _, words := range []int{200, 4096} {
			a, b := pair(t)
			f := &Frame{Type: MsgPartial, Seq: 1, From: 2, Weight: 1, TraceID: 5, SpanID: 6,
				ChunkIndex: 0, ChunkCount: 2, Payload: make([]float64, words)}
			var into Frame
			once := exchange(t, a, b, f, &into)
			if allocs := testing.AllocsPerRun(100, once); allocs != 0 {
				t.Errorf("%s, %d words: Send+RecvInto allocate %.0f per frame, want 0", name, words, allocs)
			}
			if len(into.Payload) != words || into.SpanID != 6 {
				t.Errorf("%s, %d words: decoded %+v", name, words, &into)
			}
			if a.BytesSent() != b.BytesReceived() {
				t.Errorf("%s: sent %d, received %d", name, a.BytesSent(), b.BytesReceived())
			}
		}
	}
}

// failAfterConn accepts limit bytes, then fails the write that crosses it.
type failAfterConn struct {
	net.Conn
	limit int
}

func (c *failAfterConn) Write(p []byte) (int, error) {
	if len(p) > c.limit {
		n := c.limit
		c.limit = 0
		return n, io.ErrShortWrite
	}
	c.limit -= len(p)
	return len(p), nil
}

// TestSendAccountsBeforeWriting: the sent counter moves before the bytes do
// (so it can never trail a receiver's count of the same frame) and a short
// or refused write gives back what did not leave.
func TestSendAccountsBeforeWriting(t *testing.T) {
	f := &Frame{Type: MsgModel, Payload: make([]float64, 1024)}
	var during int64
	c := &Conn{}
	c.Conn = &writeOnlyConn{onWrite: func() { during = c.BytesSent() }}
	if err := c.Send(f); err != nil {
		t.Fatal(err)
	}
	if want := int64(f.wireSize()); during != want || c.BytesSent() != want {
		t.Errorf("BytesSent during the write = %d, after = %d, want %d both times", during, c.BytesSent(), want)
	}
	short := &Conn{Conn: &failAfterConn{limit: 100}}
	if err := short.Send(f); err == nil {
		t.Fatal("short write reported success")
	}
	if short.BytesSent() != 100 {
		t.Errorf("BytesSent after a 100-byte short write = %d", short.BytesSent())
	}
	if err := short.Send(&Frame{Type: MsgPartial, ChunkIndex: 3}); err == nil {
		t.Fatal("invalid frame was sent")
	}
	if short.BytesSent() != 100 {
		t.Errorf("BytesSent after a refused frame = %d, want 100", short.BytesSent())
	}
}
