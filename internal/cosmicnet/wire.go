// Package cosmicnet is the wire layer of CoSMIC's system software: a
// length-prefixed binary framing protocol over TCP that Sigma and Delta
// nodes use to exchange model parameters, partial gradient updates, and
// control messages. The paper's system targets commodity networking ("the
// nodes communicate through conventional TCP/IP stack via a NIC"); this
// package is the same design over Go's net.Conn.
package cosmicnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"unsafe"
)

// MsgType discriminates frames on the wire.
type MsgType uint8

// Message types.
const (
	// MsgHello registers a node with the director, carrying its listen
	// address.
	MsgHello MsgType = iota + 1
	// MsgConfig tells a node its role, group, peers, and training
	// hyperparameters.
	MsgConfig
	// MsgModel broadcasts the current model parameters for the next
	// mini-batch.
	MsgModel
	// MsgPartial carries a node's locally aggregated partial update to its
	// group Sigma node.
	MsgPartial
	// MsgGroupAggregate carries a group Sigma's combined partial to the
	// master Sigma.
	MsgGroupAggregate
	// MsgDone ends training.
	MsgDone
	// MsgAck acknowledges a control message.
	MsgAck
)

const (
	// MsgStats is the metrics-federation round trip on the Director's
	// control plane: an empty request from the director, answered by a
	// frame whose Text is the node's JSON status + Prometheus exposition.
	MsgStats MsgType = iota + 8
)

var msgNames = map[MsgType]string{
	MsgHello: "hello", MsgConfig: "config", MsgModel: "model",
	MsgPartial: "partial", MsgGroupAggregate: "group-aggregate",
	MsgDone: "done", MsgAck: "ack", MsgStats: "stats",
}

// String names the message type.
func (t MsgType) String() string {
	if s, ok := msgNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// DataFrame reports whether t carries vector payload (model broadcasts,
// partial updates, group aggregates) as opposed to control traffic. The
// chaos transport's data-only fault rules key on this split: dropping a
// partial degrades a round, dropping a MsgDone wedges shutdown.
func (t MsgType) DataFrame() bool {
	return t == MsgModel || t == MsgPartial || t == MsgGroupAggregate
}

// TypeOf extracts the message type from a raw wire type byte, stripping the
// extension flags. It lets frame-boundary middleware (the chaos transport)
// classify frames without knowing the flag layout.
func TypeOf(typeByte byte) MsgType { return MsgType(typeByte &^ flagMask) }

// Frame is one protocol message.
type Frame struct {
	Type MsgType
	// Seq is the mini-batch sequence number (for Model/Partial frames).
	Seq uint32
	// From is the sender's node ID.
	From uint32
	// Weight is the aggregation credit a Partial/GroupAggregate carries
	// (number of node partials behind the payload).
	Weight float64
	// Payload is the vector body for data frames or an encoded control
	// blob for control frames. Sending reads it where it lies (the caller
	// must not write it until Send returns); decoding fills it in place
	// when its capacity suffices and otherwise replaces it with a
	// GetPayload buffer, which the frame's consumer may PutPayload.
	Payload []float64
	// Text carries small string payloads (e.g. the Hello listen address).
	Text string
	// TraceID identifies the distributed operation (one training round)
	// this frame belongs to; SpanID identifies the individual send, so a
	// trace merger can draw a flow arrow from the sender's span to every
	// receiver's span. Both are optional: a frame with neither set encodes
	// byte-identically to the pre-trace wire format.
	TraceID, SpanID uint64
	// ChunkIndex/ChunkCount/ChunkOffset carry the streaming-aggregation
	// chunk extension: a data frame whose Payload is chunk ChunkIndex of
	// ChunkCount fixed-boundary sub-vectors of one contribution, starting
	// at element ChunkOffset of the full vector. A frame is chunked iff
	// ChunkCount > 0; unchunked frames encode byte-identically to the
	// pre-chunk wire format.
	ChunkIndex, ChunkCount, ChunkOffset uint32
}

// Chunked reports whether the frame carries the chunk extension.
func (f *Frame) Chunked() bool { return f.ChunkCount > 0 }

// MaxFrameBytes is the default bound on a frame's wire size; a frame larger
// than this is corrupt (the largest legitimate payload is a full model
// vector). SetMaxFrameBytes tightens or relaxes the bound at runtime.
const MaxFrameBytes = 256 << 20

// frameCap is the live frame-size bound, checked on both encode and decode
// before any allocation happens.
var frameCap atomic.Int64

func init() { frameCap.Store(MaxFrameBytes) }

// SetMaxFrameBytes bounds the wire size of every subsequently encoded or
// decoded frame. Receiving a length prefix above the bound fails the frame
// before allocating, so a corrupt or malicious peer cannot induce an
// arbitrarily large allocation. Values below the fixed header size or zero
// restore the default.
func SetMaxFrameBytes(n int) {
	if n < headerBytes {
		n = MaxFrameBytes
	}
	frameCap.Store(int64(n))
}

// FrameCap returns the current frame-size bound.
func FrameCap() int { return int(frameCap.Load()) }

// header: type(1) seq(4) from(4) weight(8) textLen(4) payloadLen(4)
const headerBytes = 25

// scratch is the reusable state of one frame encode or decode. buf takes the
// length prefix, header, extensions and text — and the payload bytes too when
// the frame is small enough to stage whole (see stageMax); vec backs the
// net.Buffers of a vectored write, so it allocates nothing. A Conn owns one
// per direction; the package-level functions draw theirs from scratchPool.
type scratch struct {
	buf  []byte
	vec  [2][]byte
	bufs net.Buffers
}

// room returns buf cut to n bytes, growing it first when it is short (to at
// least 4 KB, so data frames never regrow it).
func (s *scratch) room(n int) []byte {
	if cap(s.buf) < n {
		s.buf = make([]byte, max(n, 4096))
	}
	return s.buf[:n]
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns a pooled scratch. The caller owns it and must return it
// with putScratch.
//
//cosmic:owns
func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(s *scratch) { scratchPool.Put(s) }

// payloadFree recycles payload vectors: the runtime returns a received
// chunk's payload here once it is folded, and the decoder draws its next one
// from here, so a streaming round cycles a handful of buffers. It is a plain
// bounded free list, not a sync.Pool: a pool sheds its contents at every GC
// (and at random under the race detector), which would put model-sized
// allocations back on the steady-state data path.
var payloadFree struct {
	sync.Mutex
	bufs [][]float64
}

// payloadFreeMax bounds the free list (a Put beyond it is dropped): the
// buffers a Sigma has in flight at once — ring capacity plus parked chunks.
const payloadFreeMax = 256

// GetPayload returns a []float64 of length n (contents undefined), recycled
// when the most recently returned buffer is large enough. The caller owns the
// buffer and must hand it back with PutPayload once it is folded or
// forwarded.
//
//cosmic:owns
func GetPayload(n int) []float64 {
	var p []float64
	payloadFree.Lock()
	if last := len(payloadFree.bufs) - 1; last >= 0 {
		p, payloadFree.bufs[last] = payloadFree.bufs[last], nil
		payloadFree.bufs = payloadFree.bufs[:last]
	}
	payloadFree.Unlock()
	if p == nil || cap(p) < n {
		// None, or too small: that one is dropped, so the list converges on
		// the largest size in circulation — in a steady round, the chunk.
		return make([]float64, n)
	}
	return p[:n]
}

// PutPayload recycles a payload slice obtained from GetPayload or a decoded
// frame. The caller must not use the slice afterwards.
func PutPayload(p []float64) {
	if cap(p) == 0 {
		return
	}
	payloadFree.Lock()
	if len(payloadFree.bufs) < payloadFreeMax {
		payloadFree.bufs = append(payloadFree.bufs, p[:0])
	}
	payloadFree.Unlock()
}

// floatBytes views p's memory as bytes, without copying.
func floatBytes(p []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(p))), len(p)*8)
}

// wireSize is the frame's encoded length, length prefix included.
func (f *Frame) wireSize() int {
	n := 4 + headerBytes + len(f.Text) + len(f.Payload)*8
	if f.TraceID != 0 || f.SpanID != 0 {
		n += traceExtBytes
	}
	if f.ChunkCount > 0 {
		n += chunkExtBytes
	}
	return n
}

// WriteFrame encodes and writes one frame.
func WriteFrame(w io.Writer, f *Frame) error {
	s := getScratch()
	defer putScratch(s)
	_, err := writeFrame(w, f, s)
	return err
}

// writeFrame reports the bytes written. Only the head is encoded; a payload
// too large to stage goes out as its own bytes, in the same vectored write.
func writeFrame(w io.Writer, f *Frame, s *scratch) (int, error) {
	traced := f.TraceID != 0 || f.SpanID != 0
	chunked := f.ChunkCount > 0
	if !chunked && (f.ChunkIndex != 0 || f.ChunkOffset != 0) {
		return 0, fmt.Errorf("cosmicnet: chunk index/offset set without chunk count")
	}
	if chunked && f.ChunkIndex >= f.ChunkCount {
		return 0, fmt.Errorf("cosmicnet: chunk index %d out of range for count %d", f.ChunkIndex, f.ChunkCount)
	}
	size := f.wireSize()
	total := size - 4
	if int64(total) > frameCap.Load() {
		return 0, fmt.Errorf("cosmicnet: frame of %d bytes exceeds limit %d", total, FrameCap())
	}
	staged := size <= stageMax
	head := size
	if !staged {
		head -= len(f.Payload) * 8
	}
	buf := s.room(head)
	binary.LittleEndian.PutUint32(buf[0:], uint32(total))
	typeByte := byte(f.Type)
	if traced {
		typeByte |= flagTrace
	}
	if chunked {
		typeByte |= flagChunk
	}
	buf[4] = typeByte
	binary.LittleEndian.PutUint32(buf[5:], f.Seq)
	binary.LittleEndian.PutUint32(buf[9:], f.From)
	binary.LittleEndian.PutUint64(buf[13:], math.Float64bits(f.Weight))
	binary.LittleEndian.PutUint32(buf[21:], uint32(len(f.Text)))
	binary.LittleEndian.PutUint32(buf[25:], uint32(len(f.Payload)))
	off := 4 + headerBytes
	if traced {
		binary.LittleEndian.PutUint64(buf[off:], f.TraceID)
		binary.LittleEndian.PutUint64(buf[off+8:], f.SpanID)
		off += traceExtBytes
	}
	if chunked {
		binary.LittleEndian.PutUint32(buf[off:], f.ChunkIndex)
		binary.LittleEndian.PutUint32(buf[off+4:], f.ChunkCount)
		binary.LittleEndian.PutUint32(buf[off+8:], f.ChunkOffset)
		off += chunkExtBytes
	}
	off += copy(buf[off:], f.Text)
	if staged {
		stagePayload(buf[off:], f.Payload)
		return w.Write(buf)
	}
	s.vec = [2][]byte{buf, floatBytes(f.Payload)}
	s.bufs = s.vec[:]
	n, err := s.bufs.WriteTo(w)
	s.vec[1] = nil // the scratch outlives the call; the caller's payload must not
	return int(n), err
}

// ReadFrame reads and decodes one frame.
func ReadFrame(r io.Reader) (*Frame, error) {
	f := new(Frame)
	if err := ReadFrameInto(r, f); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFrameInto reads and decodes one frame into f, reusing f.Payload's
// capacity when it suffices. Every field of f is overwritten. It consumes
// exactly one frame from r.
func ReadFrameInto(r io.Reader, f *Frame) error {
	s := getScratch()
	defer putScratch(s)
	_, err := readFrameInto(r, f, s)
	return err
}

// readFrameInto reports the bytes consumed. It reads the prefix and fixed
// header, then the rest: in one read when the frame is small enough to stage
// (the payload is then copied out of the scratch), otherwise extensions and
// text first and the payload straight into f.Payload's memory. Every length
// is checked against the cap and the others before anything is sized by it.
func readFrameInto(r io.Reader, f *Frame, s *scratch) (int, error) {
	buf := s.room(4 + headerBytes)
	n, err := io.ReadFull(r, buf)
	if err != nil {
		return n, err
	}
	total := binary.LittleEndian.Uint32(buf)
	// Bound the length prefix before allocating anything: a corrupt peer
	// must not be able to induce an arbitrarily large allocation.
	if total < headerBytes || int64(total) > frameCap.Load() {
		return n, fmt.Errorf("cosmicnet: bad frame length %d (cap %d)", total, FrameCap())
	}
	traced := buf[4]&flagTrace != 0
	chunked := buf[4]&flagChunk != 0
	ext := 0
	if traced {
		ext += traceExtBytes
	}
	if chunked {
		ext += chunkExtBytes
	}
	f.Type = MsgType(buf[4] &^ flagMask)
	f.Seq = binary.LittleEndian.Uint32(buf[5:])
	f.From = binary.LittleEndian.Uint32(buf[9:])
	f.Weight = math.Float64frombits(binary.LittleEndian.Uint64(buf[13:]))
	textLen := binary.LittleEndian.Uint32(buf[21:])
	payloadLen := binary.LittleEndian.Uint32(buf[25:])
	// The consistency check is done in 64-bit arithmetic: payloadLen*8 in
	// uint32 can wrap (e.g. payloadLen = 2^29) and match total, which would
	// size the payload far beyond the frame. Passing it bounds textLen and
	// payloadLen*8 by total, hence by the frame cap.
	if int64(total) != int64(headerBytes)+int64(ext)+int64(textLen)+int64(payloadLen)*8 {
		return n, fmt.Errorf("cosmicnet: inconsistent frame: total %d, ext %d, text %d, payload %d",
			total, ext, textLen, payloadLen)
	}
	staged := int(total) <= stageMax-4
	rest := ext + int(textLen)
	if staged {
		rest = int(total) - headerBytes
	}
	buf = s.room(rest)
	m, err := io.ReadFull(r, buf)
	n += m
	if err != nil {
		return n, err
	}
	off := 0
	f.TraceID, f.SpanID = 0, 0
	if traced {
		f.TraceID = binary.LittleEndian.Uint64(buf[off:])
		f.SpanID = binary.LittleEndian.Uint64(buf[off+8:])
		off += traceExtBytes
	}
	f.ChunkIndex, f.ChunkCount, f.ChunkOffset = 0, 0, 0
	if chunked {
		f.ChunkIndex = binary.LittleEndian.Uint32(buf[off:])
		f.ChunkCount = binary.LittleEndian.Uint32(buf[off+4:])
		f.ChunkOffset = binary.LittleEndian.Uint32(buf[off+8:])
		off += chunkExtBytes
		if f.ChunkCount == 0 || f.ChunkIndex >= f.ChunkCount {
			return n, fmt.Errorf("cosmicnet: bad chunk extension: index %d, count %d", f.ChunkIndex, f.ChunkCount)
		}
	}
	f.Text = string(buf[off : off+int(textLen)])
	off += int(textLen)
	words := int(payloadLen)
	if f.Payload == nil || cap(f.Payload) < words {
		// A recycled buffer when one fits; never nil, so decoded frames stay
		// uniform (GetPayload(0) is allocation-free and non-nil).
		//cosmic:transfers the decoded frame owns its payload; its consumer may PutPayload it
		f.Payload = GetPayload(words)
	} else {
		f.Payload = f.Payload[:words]
	}
	if staged {
		unstagePayload(f.Payload, buf[off:])
		return n, nil
	}
	m, err = io.ReadFull(r, floatBytes(f.Payload))
	return n + m, err
}

// Conn wraps a net.Conn with frame I/O and byte accounting (the
// communication-volume numbers Figures 13/14 reason about). &Conn{Conn: c}
// is ready to use; Send is safe from several goroutines, receiving is not.
type Conn struct {
	net.Conn
	sent, received atomic.Int64
	// sendMu keeps a frame contiguous on the wire when its head and payload
	// leave in separate writes, and guards tx. rx is the receiver's.
	sendMu sync.Mutex
	tx, rx scratch
}

// Dial connects to a peer node.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Conn{Conn: c}, nil
}

// Send writes one frame. The frame is counted before it can reach the peer,
// so a frame some receiver has counted is one its sender has counted (sent
// never trails received); a failed or short write gives back what stayed.
func (c *Conn) Send(f *Frame) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	size := f.wireSize()
	c.sent.Add(int64(size))
	n, err := writeFrame(c.Conn, f, &c.tx)
	if n != size {
		c.sent.Add(int64(n - size))
	}
	return err
}

// Recv reads one frame.
func (c *Conn) Recv() (*Frame, error) {
	f := new(Frame)
	if err := c.RecvInto(f); err != nil {
		return nil, err
	}
	return f, nil
}

// RecvInto reads one frame into f, reusing f.Payload's capacity. Every
// field of f is overwritten.
func (c *Conn) RecvInto(f *Frame) error {
	n, err := readFrameInto(c.Conn, f, &c.rx)
	c.received.Add(int64(n))
	return err
}

// BytesSent returns the total frame bytes written on this connection.
func (c *Conn) BytesSent() int64 { return c.sent.Load() }

// BytesReceived returns the total frame bytes read on this connection.
func (c *Conn) BytesReceived() int64 { return c.received.Load() }

// Listener accepts framed connections.
type Listener struct {
	net.Listener
}

// Listen opens a TCP listener on addr ("127.0.0.1:0" for an ephemeral
// port).
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{Listener: l}, nil
}

// AcceptConn accepts the next framed connection.
func (l *Listener) AcceptConn() (*Conn, error) {
	c, err := l.Accept()
	if err != nil {
		return nil, err
	}
	return &Conn{Conn: c}, nil
}
