package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// every frame type with representative field values, including the edge
// floats whose bit patterns must survive the trip.
func sampleFrames() []Frame {
	return []Frame{
		Hello{Proto: ProtoVersion, Agent: "smartload/1"},
		Hello{},
		Welcome{Proto: ProtoVersion, ModelFormat: 1, ModelVersion: 3, NumFeatures: 4, Model: "runtime-common4"},
		OpenStream{Stream: 7, App: "backdoor-3#2"},
		Sample{Stream: 7, Seq: 42, Features: []float64{1.5, -0.25, 0, 1e-9}},
		Sample{Stream: 1, Seq: 0, Features: []float64{}},
		Sample{Stream: 2, Seq: 1, IngressNanos: 1754500000123456789, Features: []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64}},
		Verdict{Stream: 7, Seq: 42, Flags: FlagMalware | FlagAlarm, Class: 3, Score: 0.93, Smoothed: 0.71},
		CloseStream{Stream: 7},
		StreamSummary{Stream: 7, ModelVersion: 2, Samples: 1 << 40, Shed: 12, Alarms: 3, MaxSmoothed: 0.99},
		Heartbeat{Nanos: 1234567890},
		Error{Code: CodeBadFeatures, Msg: "sample has 3 features, want 4"},
	}
}

func TestRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		buf, err := Append(nil, f)
		if err != nil {
			t.Fatalf("Append(%#v): %v", f, err)
		}
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode(%#v): %v", f, err)
		}
		if n != len(buf) {
			t.Errorf("Decode(%#v) consumed %d of %d bytes", f, n, len(buf))
		}
		want := f
		// An empty feature slice decodes to nil; normalize for comparison.
		if s, ok := want.(Sample); ok && len(s.Features) == 0 {
			s.Features = nil
			want = s
			if g := got.(Sample); len(g.Features) == 0 {
				g.Features = nil
				got = g
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, want)
		}
	}
}

func TestRoundTripNaN(t *testing.T) {
	buf, err := Append(nil, Sample{Stream: 1, Seq: 2, Features: []float64{math.NaN()}})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if fs := got.(Sample).Features; len(fs) != 1 || !math.IsNaN(fs[0]) {
		t.Errorf("NaN did not survive the round trip: %v", fs)
	}
}

func TestDecodeIncomplete(t *testing.T) {
	full, err := Append(nil, Verdict{Stream: 1, Seq: 2, Score: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := Decode(full[:cut]); !errors.Is(err, ErrIncomplete) {
			t.Errorf("Decode of %d/%d bytes: err=%v, want ErrIncomplete", cut, len(full), err)
		}
	}
}

func TestDecodeMultipleFrames(t *testing.T) {
	var buf []byte
	var err error
	frames := sampleFrames()
	for _, f := range frames {
		if buf, err = Append(buf, f); err != nil {
			t.Fatal(err)
		}
	}
	decoded := 0
	for len(buf) > 0 {
		f, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", decoded, err)
		}
		if f.Type() != frames[decoded].Type() {
			t.Fatalf("frame %d decoded as type 0x%02x, want 0x%02x", decoded, f.Type(), frames[decoded].Type())
		}
		buf = buf[n:]
		decoded++
	}
	if decoded != len(frames) {
		t.Errorf("decoded %d frames, want %d", decoded, len(frames))
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name string
		buf  []byte
	}{
		{"zero length", []byte{0, 0, 0, 0}},
		{"over max payload", []byte{0xff, 0xff, 0xff, 0xff}},
		{"unknown type", []byte{0, 0, 0, 1, 0x7f}},
		{"truncated hello", []byte{0, 0, 0, 2, TypeHello, 0}},
		{"trailing bytes", []byte{0, 0, 0, 6, TypeCloseStream, 0, 0, 0, 1, 0xee}},
		{"sample feature count lies", []byte{0, 0, 0, 19, TypeSample, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9}},
		{"string over max", append([]byte{0, 0, 0, 5, TypeHello, 0, 1, 0xff, 0xff}, make([]byte, 0)...)},
	}
	for _, tc := range cases {
		if _, _, err := Decode(tc.buf); err == nil || errors.Is(err, ErrIncomplete) {
			t.Errorf("%s: Decode err=%v, want a hard decode error", tc.name, err)
		}
	}
}

func TestAppendRejects(t *testing.T) {
	if _, err := Append(nil, Hello{Agent: strings.Repeat("x", MaxString+1)}); err == nil {
		t.Error("Append accepted an over-long string")
	}
	if _, err := Append(nil, Sample{Features: make([]float64, MaxFeatures+1)}); err == nil {
		t.Error("Append accepted an over-wide sample")
	}
	// A rejected frame must leave dst untouched.
	dst := []byte{1, 2, 3}
	out, err := Append(dst, Hello{Agent: strings.Repeat("x", MaxString+1)})
	if err == nil || len(out) != 3 {
		t.Errorf("failed Append left %d bytes, want the 3 original", len(out))
	}
}

func TestReaderWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	frames := sampleFrames()
	for _, f := range frames {
		if err := w.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range frames {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type() != want.Type() {
			t.Fatalf("frame %d: type 0x%02x, want 0x%02x", i, got.Type(), want.Type())
		}
		if s, ok := got.(Sample); ok {
			// The reader-owned features buffer aliases; copy before the
			// next call per the documented contract.
			ws := want.(Sample)
			if len(s.Features) != len(ws.Features) {
				t.Fatalf("frame %d: %d features, want %d", i, len(s.Features), len(ws.Features))
			}
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after last frame: err=%v, want io.EOF", err)
	}
}

func TestReaderTruncatedStream(t *testing.T) {
	full, err := Append(nil, Heartbeat{Nanos: 99})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		if _, err := r.Next(); err != io.ErrUnexpectedEOF {
			t.Errorf("cut at %d: err=%v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestWriterWriteAllocs pins the encode half of the hot path: writing a
// Verdict (the shard's per-sample output) or a Sample (the gateway's
// per-sample forward) allocates nothing, so neither frame may escape to
// the heap on its way through the Frame interface.
func TestWriterWriteAllocs(t *testing.T) {
	w := NewWriter(io.Discard)
	feats := []float64{1.25, 0.5, 3.75, 0.125}
	for name, write := range map[string]func() error{
		"Verdict": func() error {
			return w.Write(Verdict{Stream: 3, Seq: 7, Flags: FlagMalware, Class: 2, Score: 0.9, Smoothed: 0.4})
		},
		"Sample": func() error {
			return w.Write(Sample{Stream: 3, Seq: 7, IngressNanos: 99, Features: feats})
		},
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { write() }); n != 0 {
			t.Errorf("Writer.Write(%s) allocates %.1f times per call, want 0", name, n)
		}
	}
}

// BenchmarkWireSample measures the hot encode+decode path of one 4-feature
// sample frame, the unit of work the serving layer pays per streamed HPC
// sample on each side of the socket.
func BenchmarkWireSample(b *testing.B) {
	s := Sample{Stream: 3, Seq: 7, Features: []float64{1.25, 0.5, 3.75, 0.125}}
	buf, err := Append(nil, s)
	if err != nil {
		b.Fatal(err)
	}
	feats := make([]float64, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = Append(buf[:0], s)
		f, err := DecodePayload(buf[4:], feats)
		if err != nil {
			b.Fatal(err)
		}
		feats = f.(Sample).Features
	}
}
