package main

// The test-side half of adapter.go: the only test file that calls into the
// program under test.

import (
	"fmt"

	"repro/internal/cosmicnet"
)

// loopbackFrames sends one data frame per payload size from client's
// transport to server's over loopback TCP and returns what cosmicnet's own
// accounting saw: the sender's BytesSent, the receiver's BytesReceived.
func loopbackFrames(server, client cosmicnet.Transport, payloadWords []int) (sent, received int64, frames int, err error) {
	l, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, err
	}
	defer l.Close()
	type accepted struct {
		conn *cosmicnet.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.AcceptConn()
		ch <- accepted{c, err}
	}()
	out, err := client.Dial(l.Addr().String())
	if err != nil {
		return 0, 0, 0, err
	}
	defer out.Close()
	a := <-ch
	if a.err != nil {
		return 0, 0, 0, a.err
	}
	defer a.conn.Close()

	for i, words := range payloadWords {
		f := &cosmicnet.Frame{
			Type: cosmicnet.MsgPartial, Seq: uint32(i), From: 1, Weight: 1,
			Payload: make([]float64, words), ChunkCount: 1,
		}
		if err := out.Send(f); err != nil {
			return 0, 0, 0, err
		}
		got, err := a.conn.Recv()
		if err != nil {
			return 0, 0, 0, err
		}
		if len(got.Payload) != words || got.Seq != uint32(i) {
			return 0, 0, 0, fmt.Errorf("frame %d arrived as seq %d with %d words", i, got.Seq, len(got.Payload))
		}
	}
	return out.BytesSent(), a.conn.BytesReceived(), len(payloadWords), nil
}
