package session

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"twosmart/internal/telemetry"
	"twosmart/internal/wire"
)

// Client is the agent side of the streaming protocol, the counterpart of
// Conn: it dials a shard or gateway, completes the Hello/Welcome
// handshake and exposes typed frame I/O. cmd/smartload drives tiers with
// it and the gateway tier (internal/cluster) uses it for its shard
// connections. Send/SendBatch/Open/Close/Heartbeat may be called from one
// goroutine while another consumes Next — the write path is mutex-guarded
// and the read path is single-consumer.
type Client struct {
	nc      net.Conn
	r       *wire.Reader
	welcome wire.Welcome

	wmu     sync.Mutex
	w       *wire.Writer
	flushes telemetry.Counter // Flushes that wrote bytes
}

// Dial connects to a streaming detection server and completes the
// handshake, identifying as agent. Connection-refused errors are retried
// with a short backoff until ctx is cancelled, so an agent can start
// before its server finishes loading the model.
func Dial(ctx context.Context, addr, agent string) (*Client, error) {
	return dialClient(ctx, addr, agent, true)
}

// DialOnce is Dial without the connection-refused retry loop: the first
// dial error is returned immediately. The gateway tier uses it for its
// shard connections — there a refused connection is the health signal
// itself, and retrying would stall stream placement behind a dead shard.
func DialOnce(ctx context.Context, addr, agent string) (*Client, error) {
	return dialClient(ctx, addr, agent, false)
}

func dialClient(ctx context.Context, addr, agent string, retry bool) (*Client, error) {
	var nc net.Conn
	for {
		var err error
		nc, err = (&net.Dialer{}).DialContext(ctx, "tcp", addr)
		if err == nil {
			break
		}
		if !retry || ctx.Err() != nil {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, err
		case <-time.After(50 * time.Millisecond):
		}
	}
	c := &Client{nc: nc, r: wire.NewReader(nc), w: wire.NewWriter(nc), flushes: telemetry.NopCounter}
	if err := c.handshake(agent); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

func (c *Client) handshake(agent string) error {
	c.wmu.Lock()
	err := c.w.Write(wire.Hello{Proto: wire.ProtoVersion, Agent: agent})
	if err == nil {
		err = c.w.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		return fmt.Errorf("session: handshake write: %w", err)
	}
	c.nc.SetReadDeadline(time.Now().Add(HandshakeTimeout))
	defer c.nc.SetReadDeadline(time.Time{})
	f, err := c.r.Next()
	if err != nil {
		return fmt.Errorf("session: handshake read: %w", err)
	}
	switch fr := f.(type) {
	case wire.Welcome:
		if fr.Proto != wire.ProtoVersion {
			return fmt.Errorf("session: server speaks protocol v%d, want v%d", fr.Proto, wire.ProtoVersion)
		}
		c.welcome = fr
		return nil
	case wire.Error:
		return fmt.Errorf("session: server rejected handshake: code %d: %s", fr.Code, fr.Msg)
	default:
		return fmt.Errorf("session: handshake reply is %T, want Welcome", f)
	}
}

// Welcome returns the server's handshake reply (model name, format
// version, expected feature width).
func (c *Client) Welcome() wire.Welcome { return c.welcome }

func (c *Client) write(f wire.Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.w.Write(f)
}

// OpenStream announces a new per-app sample stream.
func (c *Client) OpenStream(stream uint32, app string) error {
	return c.write(wire.OpenStream{Stream: stream, App: app})
}

// Send queues one sample frame; call Flush to push buffered frames out.
func (c *Client) Send(stream, seq uint32, features []float64) error {
	return c.write(wire.Sample{Stream: stream, Seq: seq, Features: features})
}

// SendBatch queues every sample of b on stream under one writer lock,
// stamping each frame's IngressNanos with b.Ats[i] (when this tier's read
// loop accepted the sample): the gateway tier forwards batches with it so
// the scoring shard can attribute the gateway→shard hop in end-to-end
// trace records. Call Flush to push the frames out.
func (c *Client) SendBatch(stream uint32, b Batch) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for i, fv := range b.Samples {
		if err := c.w.Write(wire.Sample{Stream: stream, Seq: b.Seqs[i],
			IngressNanos: uint64(b.Ats[i].UnixNano()), Features: fv}); err != nil {
			return err
		}
	}
	return nil
}

// CloseStream ends a stream; the server answers with a StreamSummary.
func (c *Client) CloseStream(stream uint32) error {
	return c.write(wire.CloseStream{Stream: stream})
}

// Heartbeat sends a liveness probe the server echoes back.
func (c *Client) Heartbeat(nanos uint64) error {
	return c.write(wire.Heartbeat{Nanos: nanos})
}

// CountFlushes makes every later Flush that writes bytes bump n.
func (c *Client) CountFlushes(n telemetry.Counter) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.flushes = n
}

// Flush pushes buffered frames to the server, and counts the flush (see
// CountFlushes) when there were any.
func (c *Client) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.w.Buffered() > 0 {
		c.flushes.Inc()
	}
	return c.w.Flush()
}

// Next reads the next server frame. It returns io.EOF once the server has
// closed the connection cleanly.
func (c *Client) Next() (wire.Frame, error) {
	return c.r.Next()
}

// VerdictRun returns the run of whole Verdict frames at the head of the
// inbound stream as bytes, and how many frames it holds, as
// wire.Reader.VerdictRun does: empty when the next frame is of another
// type, for Next. Discard consumes the run once it is used.
func (c *Client) VerdictRun() ([]byte, int, error) { return c.r.VerdictRun() }

// Discard consumes n inbound bytes: a run VerdictRun returned.
func (c *Client) Discard(n int) { c.r.Discard(n) }

// Buffered reports how many inbound bytes are already read and waiting to
// be decoded — nonzero means the next Next will not block.
func (c *Client) Buffered() int { return c.r.Buffered() }

// SetReadDeadline bounds the next read; the zero time clears it. Used by
// callers that probe liveness with Heartbeat round-trips.
func (c *Client) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// CloseWrite flushes and half-closes the connection so the server sees
// end-of-stream while its remaining verdicts can still be read.
func (c *Client) CloseWrite() error {
	if err := c.Flush(); err != nil {
		return err
	}
	type writeCloser interface{ CloseWrite() error }
	if wc, ok := c.nc.(writeCloser); ok {
		return wc.CloseWrite()
	}
	return errors.New("session: connection does not support half-close")
}

// Close tears the connection down.
func (c *Client) Close() error { return c.nc.Close() }
