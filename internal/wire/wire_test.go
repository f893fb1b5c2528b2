package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
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
	// The longest frame a length header may announce, which a Reader
	// must still hold whole to find what is wrong with it.
	maxFrame := binary.BigEndian.AppendUint32(nil, MaxPayload)
	maxFrame = append(maxFrame, TypeCloseStream)
	maxFrame = append(maxFrame, make([]byte, MaxPayload-1)...)
	cases := []struct {
		name string
		buf  []byte
	}{
		{"zero length", []byte{0, 0, 0, 0}},
		{"over max payload", []byte{0xff, 0xff, 0xff, 0xff}},
		{"unknown type", []byte{0, 0, 0, 1, 0x7f}},
		{"truncated hello", []byte{0, 0, 0, 2, TypeHello, 0}},
		{"trailing bytes", []byte{0, 0, 0, 6, TypeCloseStream, 0, 0, 0, 1, 0xee}},
		{"trailing bytes at max payload", maxFrame},
		{"sample feature count lies", []byte{0, 0, 0, 19, TypeSample, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9}},
		{"string over max", append([]byte{0, 0, 0, 5, TypeHello, 0, 1, 0xff, 0xff}, make([]byte, 0)...)},
	}
	for _, tc := range cases {
		if _, _, err := Decode(tc.buf); err == nil || errors.Is(err, ErrIncomplete) {
			t.Errorf("%s: Decode err=%v, want a hard decode error", tc.name, err)
		} else if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Decode err=%v does not wrap ErrMalformed", tc.name, err)
		}
		// A Reader reports the same frame as malformed, not as an I/O end.
		if _, err := NewReader(bytes.NewReader(tc.buf)).Next(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Reader.Next err=%v, want ErrMalformed", tc.name, err)
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
	for _, f := range []Frame{Heartbeat{Nanos: 99}, Sample{Stream: 1, Seq: 2, Features: []float64{1, 2}}} {
		full, err := Append(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < len(full); cut++ {
			r := NewReader(bytes.NewReader(full[:cut]))
			if _, err := r.Next(); err != io.ErrUnexpectedEOF {
				t.Errorf("%T cut at %d: Next err=%v, want io.ErrUnexpectedEOF", f, cut, err)
			}
			var s Sample
			r = NewReader(bytes.NewReader(full[:cut]))
			if _, err := r.ReadSample(&s); err != io.ErrUnexpectedEOF {
				t.Errorf("%T cut at %d: ReadSample err=%v, want io.ErrUnexpectedEOF", f, cut, err)
			}
		}
	}
}

// TestReaderBurst walks a stream the way the front end's read loop does:
// Ready says whether the next frame is already buffered, ReadSample takes
// Samples and leaves every other frame for Next. Fed through readers that
// deliver one byte or half the request per read, frames end up split
// across buffered reads, and ReadSample must still see every frame in
// order.
func TestReaderBurst(t *testing.T) {
	var stream []byte
	var want []Frame
	for i := 0; i < 3000; i++ {
		var f Frame = Sample{Stream: uint32(i % 5), Seq: uint32(i), IngressNanos: uint64(i) * 7,
			Features: []float64{float64(i), 0.5, -1, math.Inf(1)}}
		switch i % 97 {
		case 0:
			f = OpenStream{Stream: uint32(i), App: "app"}
		case 50:
			f = Heartbeat{Nanos: uint64(i)}
		}
		var err error
		if stream, err = Append(stream, f); err != nil {
			t.Fatal(err)
		}
		want = append(want, f)
	}
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"whole": func(r io.Reader) io.Reader { return r },
		"half":  iotest.HalfReader,
		"byte":  iotest.OneByteReader,
	} {
		r := NewReader(wrap(bytes.NewReader(stream)))
		var s Sample
		for i, w := range want {
			ok, err := r.ReadSample(&s)
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			var got Frame = s
			if !ok {
				if got, err = r.Next(); err != nil {
					t.Fatalf("%s: frame %d: %v", name, i, err)
				}
			}
			if ok != (w.Type() == TypeSample) {
				t.Fatalf("%s: frame %d: ReadSample took=%v for type 0x%02x", name, i, ok, w.Type())
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("%s: frame %d: got %#v, want %#v", name, i, got, w)
			}
		}
		if r.Ready() {
			t.Fatalf("%s: Ready after the last frame", name)
		}
		if ok, err := r.ReadSample(&s); ok || err != io.EOF {
			t.Fatalf("%s: after the last frame: ReadSample = %v, %v, want io.EOF", name, ok, err)
		}
	}
}

// TestReaderReady pins the whole-frame check the read loop uses to decide
// when a read could block: the next frame is ready only once every byte
// of it is buffered, and a frame over MaxPayload never is.
func TestReaderReady(t *testing.T) {
	frame, err := Append(nil, Sample{Stream: 1, Seq: 2, Features: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if NewReader(bytes.NewReader(frame)).Ready() {
		t.Fatal("Ready before anything was read")
	}
	long := append([]byte{0, 1, 0, 0, TypeError}, make([]byte, 100)...) // announces 64 KiB, over MaxPayload
	for k := 0; k <= len(frame); k++ {
		for name, next := range map[string][]byte{"sample": frame[:k], "long": long[:min(k, len(long))]} {
			// Reading the first frame buffers the whole stream behind it.
			r := NewReader(bytes.NewReader(append(append([]byte{}, frame...), next...)))
			var s Sample
			if ok, err := r.ReadSample(&s); !ok || err != nil {
				t.Fatalf("%s/%d: first frame: %v, %v", name, k, ok, err)
			}
			if want := name == "sample" && k == len(frame); r.Ready() != want {
				t.Errorf("%s: Ready() = %v with %d bytes of the next frame buffered", name, !want, len(next))
			}
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

// TestReaderReadAllocs is the decode half of TestWriterWriteAllocs:
// reading a buffered burst of Sample frames into a caller-owned Sample
// allocates nothing, Next of a Verdict allocates only the box that
// carries it as a Frame, and reading and consuming a buffered run of 64
// Verdicts as bytes, as the gateway's relay does, allocates nothing.
func TestReaderReadAllocs(t *testing.T) {
	var burst []byte
	for seq := uint32(0); seq < 64; seq++ {
		var err error
		burst, err = Append(burst, Sample{Stream: 3, Seq: seq, IngressNanos: 99, Features: []float64{1.25, 0.5, 3.75, 0.125}})
		if err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&replay{frames: burst})
	var s Sample
	readBurst := func() {
		for i := 0; i < 64; i++ {
			if ok, err := r.ReadSample(&s); !ok || err != nil {
				t.Fatalf("ReadSample = %v, %v", ok, err)
			}
		}
	}
	readBurst()
	if n := testing.AllocsPerRun(100, readBurst); n != 0 {
		t.Errorf("reading a burst of 64 Samples allocates %.1f times, want 0", n)
	}

	verdict, err := Append(nil, Verdict{Stream: 3, Seq: 7, Flags: FlagMalware, Class: 2, Score: 0.9, Smoothed: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	rv := NewReader(&replay{frames: verdict})
	next := func() {
		if _, err := rv.Next(); err != nil {
			t.Fatal(err)
		}
	}
	next()
	if n := testing.AllocsPerRun(100, next); n != 1 {
		t.Errorf("Reader.Next of a Verdict allocates %.1f times per call, want 1 (the Frame box)", n)
	}

	rr := NewReader(&rounds{block: verdictRun(t, 64)})
	readRun := func() {
		run, frames, err := rr.VerdictRun()
		if err != nil || frames != 64 || len(run) != 64*(4+verdictBody) {
			t.Fatalf("VerdictRun = %d bytes, %d frames, %v; want the 64 Verdicts of one read", len(run), frames, err)
		}
		rr.Discard(len(run))
	}
	readRun()
	if n := testing.AllocsPerRun(100, readRun); n != 0 {
		t.Errorf("reading and consuming a run of 64 Verdicts allocates %.1f times, want 0", n)
	}
}

// verdictRun encodes n Verdicts of one stream back to back.
func verdictRun(tb testing.TB, n int) []byte {
	tb.Helper()
	var run []byte
	for seq := 0; seq < n; seq++ {
		var err error
		run, err = Append(run, Verdict{Stream: 3, Seq: uint32(seq), Flags: FlagMalware | FlagAlarm, Class: 2, Score: 0.9, Smoothed: 0.4})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return run
}

// rounds is an endless stream that delivers at most one block per read,
// as a shard's flush of one round reaches the gateway's relay.
type rounds struct {
	block []byte
	off   int
}

func (p *rounds) Read(b []byte) (int, error) {
	n := copy(b, p.block[p.off:])
	p.off = (p.off + n) % len(p.block)
	return n, nil
}

// replay is an endless stream repeating frames, as a busy connection
// keeps a Reader's buffer full.
type replay struct {
	frames []byte
	off    int
}

func (p *replay) Read(b []byte) (int, error) {
	n := 0
	for n < len(b) {
		k := copy(b[n:], p.frames[p.off:])
		n += k
		p.off = (p.off + k) % len(p.frames)
	}
	return n, nil
}

// BenchmarkWireSample measures one 4-feature sample frame through both
// sides of the socket: the encode a sender pays (Append) and the decode
// the front end's read loop pays (Reader.ReadSample into a reused Sample,
// its buffer kept full by a replayed stream of that frame).
func BenchmarkWireSample(b *testing.B) {
	s := Sample{Stream: 3, Seq: 7, Features: []float64{1.25, 0.5, 3.75, 0.125}}
	buf, err := Append(nil, s)
	if err != nil {
		b.Fatal(err)
	}
	r := NewReader(&replay{frames: append([]byte(nil), buf...)})
	var got Sample
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = Append(buf[:0], s)
		if ok, err := r.ReadSample(&got); !ok || err != nil {
			b.Fatalf("ReadSample = %v, %v", ok, err)
		}
	}
}

// BenchmarkWireVerdictRun measures the gateway's Verdict relay over one
// shard round of 64 Verdicts: the run read in place (Reader.VerdictRun),
// copied whole into a Writer over io.Discard (WriteRaw) and consumed.
// It reports ns per Verdict relayed.
func BenchmarkWireVerdictRun(b *testing.B) {
	const perRound = 64
	r := NewReader(&rounds{block: verdictRun(b, perRound)})
	w := NewWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, frames, err := r.VerdictRun()
		if err != nil || frames != perRound {
			b.Fatalf("VerdictRun = %d frames, %v", frames, err)
		}
		if err := w.WriteRaw(run); err != nil {
			b.Fatal(err)
		}
		r.Discard(len(run))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perRound), "ns/verdict")
}
