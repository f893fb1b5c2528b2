package session

import (
	"context"
	"io"
	"reflect"
	"testing"
	"time"

	"twosmart/internal/telemetry"
	"twosmart/internal/wire"
)

// TestFrontendBurstOrder sends one flush whose frames the read loop takes
// as one read burst, and checks that every frame still takes effect at
// its position: a Close and an Open between samples apply in between, a
// Heartbeat is echoed only once the samples before it are queued, and the
// samples ahead of a wrong-width sample are processed before the
// connection ends with CodeBadFeatures.
func TestFrontendBurstOrder(t *testing.T) {
	h := newFakeHandler()
	protoErrs := telemetry.New().Counter("protocol_errors_total")
	conns := make(chan *Conn, 1)
	pushedAtEcho := make(chan uint64, 1)
	addr := startFrontend(t, Tier{
		Welcome: func() (wire.Welcome, *wire.Error) {
			return wire.Welcome{Proto: wire.ProtoVersion, NumFeatures: 2}, nil
		},
		Heartbeat: func(hb wire.Heartbeat) wire.Heartbeat {
			q := (<-conns).eng.q
			q.mu.Lock()
			pushedAtEcho <- q.pushed
			q.mu.Unlock()
			return hb
		},
		NewHandler: func(c *Conn, _ string) (Handler, func(), error) {
			conns <- c
			return h, nil, nil
		},
		Metrics: Metrics{ProtoErrs: protoErrs},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := Dial(ctx, addr, "burst")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fv := []float64{1, 2}
	for _, err := range []error{
		c.OpenStream(1, "a"),
		c.Send(1, 0, fv),
		c.Send(1, 1, fv),
		c.CloseStream(1),
		c.Send(1, 2, fv),     // stream 1 is closed: rejected
		c.OpenStream(2, "a"), // app "a" is free again once the close applied
		c.Send(2, 0, fv),
		c.Heartbeat(7),
		c.Send(2, 1, fv),
		c.Send(2, 2, []float64{1}), // wrong width
		c.Flush(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var got []wire.Frame
	for {
		f, err := c.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f)
	}
	want := []wire.Frame{
		wire.Heartbeat{Nanos: 7},
		wire.Error{Code: wire.CodeBadFeatures, Msg: "sample has 1 features, model wants 2"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frames %#v, want %#v", got, want)
	}
	if n := <-pushedAtEcho; n != 4 {
		t.Errorf("the Heartbeat was echoed with %d samples queued, want the 4 read before it", n)
	}
	for id, seqs := range map[uint32][]uint32{1: {0, 1}, 2: {0, 1}} {
		st := h.stream(id)
		if st == nil {
			t.Fatalf("stream %d never opened", id)
		}
		st.mu.Lock()
		if !reflect.DeepEqual(st.seqs, seqs) {
			t.Errorf("stream %d processed seqs %v, want %v", id, st.seqs, seqs)
		}
		st.mu.Unlock()
	}
	if n := protoErrs.Value(); n != 2 {
		t.Errorf("protocol errors %d, want 2: the sample for the closed stream and the wrong width", n)
	}
}

// TestConnWriteRawAllocs pins the relay's write half: a run of 64
// encoded Verdicts goes into a Conn's writer in one call without
// allocating.
func TestConnWriteRawAllocs(t *testing.T) {
	var run []byte
	for seq := uint32(0); seq < 64; seq++ {
		var err error
		if run, err = wire.Append(run, wire.Verdict{Stream: 3, Seq: seq, Flags: wire.FlagMalware, Score: 0.9}); err != nil {
			t.Fatal(err)
		}
	}
	c := &Conn{w: wire.NewWriter(io.Discard)}
	c.WriteRaw(run)
	if n := testing.AllocsPerRun(100, func() { c.WriteRaw(run) }); n != 0 {
		t.Errorf("Conn.WriteRaw of 64 Verdicts allocates %.1f times, want 0", n)
	}
}

// discardHandler processes nothing, so a benchmark times the transport.
type discardHandler struct{}

func (discardHandler) OpenStream(uint32, string) (Stream, error) { return discardHandler{}, nil }
func (discardHandler) RoundEnd() error                           { return nil }
func (discardHandler) Process(Batch) error                       { return nil }
func (discardHandler) Close(uint64) error                        { return nil }

// BenchmarkFrontendIngest times the front end's read path end to end: a
// real Frontend over TCP loopback with a handler that discards every
// batch, fed by an agent that writes a burst of 64 four-feature Sample
// frames per flush. One op is one burst; a Heartbeat round trip at the
// end waits until the read loop has queued every sample.
func BenchmarkFrontendIngest(b *testing.B) {
	const burst = 64
	addr := startFrontend(b, Tier{
		Welcome: func() (wire.Welcome, *wire.Error) {
			return wire.Welcome{Proto: wire.ProtoVersion, NumFeatures: 4}, nil
		},
		NewHandler: func(*Conn, string) (Handler, func(), error) { return discardHandler{}, nil, nil },
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c, err := Dial(ctx, addr, "ingest")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.OpenStream(1, "app"); err != nil {
		b.Fatal(err)
	}
	fv := []float64{1.25, 0.5, 3.75, 0.125}
	var seq uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < burst; k++ {
			c.Send(1, seq, fv)
			seq++
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Heartbeat(1); err != nil {
		b.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	for {
		f, err := c.Next()
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := f.(wire.Heartbeat); ok {
			break
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/sample")
}
