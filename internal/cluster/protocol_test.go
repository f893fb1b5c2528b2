package cluster

import (
	"net"
	"testing"
	"time"

	"twosmart/internal/telemetry"
	"twosmart/internal/wire"
)

// TestProtocolViolationsBothTiers runs the same protocol violations
// against a shard and a gateway. An agent cannot tell the tiers apart,
// so each must answer with the same wire.Error code and count the
// violation in its own protocol-error counter.
func TestProtocolViolationsBothTiers(t *testing.T) {
	sh := startShard(t)
	tg := startGateway(t, []string{sh.addr})
	tiers := []struct {
		name    string
		addr    string
		counter telemetry.Counter
	}{
		{"shard", sh.addr, sh.reg.Counter("serve_protocol_errors_total")},
		{"gateway", tg.addr, tg.reg.Counter("cluster_protocol_errors_total")},
	}
	hello := wire.Hello{Proto: wire.ProtoVersion, Agent: "violator"}
	open := wire.OpenStream{Stream: 1, App: "violator-app"}
	// trailing appends one byte to frame's payload, counted in its length
	// header: a frame no decoder accepts.
	trailing := func(f wire.Frame) []byte {
		b, err := wire.Append(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		b[3]++
		return append(b, 0xee)
	}
	cases := []struct {
		name   string
		first  wire.Frame // nil: raw is the first frame
		frames []wire.Frame
		raw    []byte // undecodable bytes sent after frames
		code   uint16
	}{
		{"non-Hello first frame", open, nil, nil, wire.CodeProtocol},
		{"wrong proto version", wire.Hello{Proto: wire.ProtoVersion + 1, Agent: "future"}, nil, nil, wire.CodeVersion},
		{"wrong sample width", hello, []wire.Frame{open, wire.Sample{Stream: 1, Features: []float64{1, 2}}}, nil, wire.CodeBadFeatures},
		{"unexpected frame type", hello, []wire.Frame{wire.Verdict{Stream: 1}}, nil, wire.CodeProtocol},
		{"duplicate stream id", hello, []wire.Frame{open, wire.OpenStream{Stream: 1, App: "other-app"}}, nil, wire.CodeBadStream},
		{"close of unknown stream", hello, []wire.Frame{wire.CloseStream{Stream: 9}}, nil, wire.CodeBadStream},
		{"unknown frame type byte", hello, nil, []byte{0, 0, 0, 1, 0x7f}, wire.CodeProtocol},
		{"sample with trailing bytes", hello, []wire.Frame{open}, trailing(wire.Sample{Stream: 1, Features: []float64{1, 2, 3, 4}}), wire.CodeProtocol},
		{"malformed first frame", nil, nil, trailing(hello), wire.CodeProtocol},
	}
	for _, tier := range tiers {
		for _, tc := range cases {
			t.Run(tier.name+"/"+tc.name, func(t *testing.T) {
				before := tier.counter.Value()
				nc, err := net.Dial("tcp", tier.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer nc.Close()
				nc.SetDeadline(time.Now().Add(10 * time.Second))
				w, r := wire.NewWriter(nc), wire.NewReader(nc)
				send := func(frames []wire.Frame, raw []byte) {
					for _, f := range frames {
						if err := w.Write(f); err != nil {
							t.Fatal(err)
						}
					}
					if err := w.Flush(); err != nil {
						t.Fatal(err)
					}
					if _, err := nc.Write(raw); err != nil {
						t.Fatal(err)
					}
				}
				switch tc.first {
				case nil:
					send(nil, tc.raw)
				case wire.Frame(hello):
					send([]wire.Frame{hello}, nil)
					if f, err := r.Next(); err != nil {
						t.Fatal(err)
					} else if _, ok := f.(wire.Welcome); !ok {
						t.Fatalf("handshake reply %#v, want Welcome", f)
					}
					send(tc.frames, tc.raw)
				default:
					send([]wire.Frame{tc.first}, nil)
				}
				for {
					f, err := r.Next()
					if err != nil {
						t.Fatalf("connection ended without an error frame: %v", err)
					}
					if e, ok := f.(wire.Error); ok {
						if e.Code != tc.code {
							t.Fatalf("error code %d (%s), want %d", e.Code, e.Msg, tc.code)
						}
						break
					}
				}
				if got := tier.counter.Value() - before; got != 1 {
					t.Fatalf("protocol-error counter rose by %d, want 1", got)
				}
			})
		}
	}
}
