package session

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"twosmart/internal/wire"
)

// startFrontend serves tier on a loopback listener until the test ends
// and returns the bound address.
func startFrontend(t testing.TB, tier Tier) string {
	t.Helper()
	tier.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	fe := NewFrontend(tier)
	addr, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- fe.Serve(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return addr.String()
}

// TestClientLoopback drives the agent client against the front end over
// TCP: the handshake reaches the tier's handler with the agent's name,
// and SendBatch delivers the batch's samples in order with each sample's
// Ats[i] arriving as its upstream ingress stamp.
func TestClientLoopback(t *testing.T) {
	h := newFakeHandler()
	agents := make(chan string, 1)
	addr := startFrontend(t, Tier{
		Welcome: func() (wire.Welcome, *wire.Error) {
			return wire.Welcome{Proto: wire.ProtoVersion, NumFeatures: 2, Model: "loopback"}, nil
		},
		NewHandler: func(_ *Conn, agent string) (Handler, func(), error) {
			agents <- agent
			return h, nil, nil
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := Dial(ctx, addr, "loopback-agent")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if w := c.Welcome(); w.Model != "loopback" || w.NumFeatures != 2 {
		t.Fatalf("Welcome = %+v, want model loopback with 2 features", w)
	}
	if got := <-agents; got != "loopback-agent" {
		t.Fatalf("handler built for agent %q, want loopback-agent", got)
	}

	base := time.Now().Add(-time.Second)
	var b Batch
	for i := 0; i < 8; i++ {
		b.Samples = append(b.Samples, []float64{float64(i), -float64(i)})
		b.Seqs = append(b.Seqs, uint32(100+i))
		b.Ats = append(b.Ats, base.Add(time.Duration(i)*time.Millisecond))
	}
	if err := c.OpenStream(5, "app"); err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(5, b); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseStream(5); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	// The front end closes the connection only after its worker has
	// processed everything queued.
	for {
		if _, err := c.Next(); err != nil {
			if err != io.EOF {
				t.Fatalf("reading until the front end hangs up: %v", err)
			}
			break
		}
	}

	st := h.stream(5)
	if st == nil {
		t.Fatal("stream 5 never opened")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.closed {
		t.Fatal("stream 5 not closed")
	}
	if !reflect.DeepEqual(st.seqs, b.Seqs) {
		t.Fatalf("seqs %v, want %v", st.seqs, b.Seqs)
	}
	if !reflect.DeepEqual(st.features, b.Samples) {
		t.Fatalf("features %v, want %v", st.features, b.Samples)
	}
	for i, o := range st.origins {
		if want := b.Ats[i].UnixNano(); o != want {
			t.Fatalf("sample %d: origin %d, want Ats[%d].UnixNano() = %d", i, o, i, want)
		}
	}
}

// TestDialRefusedByWelcome: a tier that refuses the handshake makes Dial
// fail with the tier's message, and no handler is built.
func TestDialRefusedByWelcome(t *testing.T) {
	addr := startFrontend(t, Tier{
		Welcome: func() (wire.Welcome, *wire.Error) {
			return wire.Welcome{}, &wire.Error{Code: wire.CodeUnavailable, Msg: "no healthy shard here"}
		},
		NewHandler: func(*Conn, string) (Handler, func(), error) {
			t.Error("handler built for a refused agent")
			return newFakeHandler(), nil, nil
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := Dial(ctx, addr, "refused-agent")
	if err == nil {
		c.Close()
		t.Fatal("Dial succeeded against a refusing tier")
	}
	if !strings.Contains(err.Error(), "no healthy shard here") {
		t.Fatalf("Dial error %q does not carry the refusal message", err)
	}
}

// TestDialOnceNoRetry: DialOnce to a closed listener returns the refused
// dial at once, where Dial would keep retrying until its context ends.
func TestDialOnceNoRetry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := DialOnce(ctx, addr, "once")
	if err == nil {
		c.Close()
		t.Fatal("DialOnce succeeded against a closed listener")
	}
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("DialOnce error %v, want connection refused", err)
	}
	if ctx.Err() != nil {
		t.Fatalf("DialOnce returned only after its context ended: %v", err)
	}
}
