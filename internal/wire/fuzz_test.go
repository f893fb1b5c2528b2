package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// FuzzDecodeFrame pins the codec's safety and canonicality contracts
// against arbitrary network input:
//
//  1. Decode never panics, whatever the bytes (the server feeds it raw
//     socket data).
//  2. A frame that decodes successfully re-encodes to exactly the bytes
//     it was decoded from — the encoding is canonical, so there is no
//     mutant encoding a hostile client could use to smuggle divergent
//     interpretations past middleware.
//  3. Reader agrees with Decode on the same bytes.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range []Frame{
		Hello{Proto: ProtoVersion, Agent: "fuzz"},
		Welcome{Proto: ProtoVersion, ModelFormat: 1, ModelVersion: 2, NumFeatures: 4, Model: "m"},
		OpenStream{Stream: 1, App: "app"},
		Sample{Stream: 1, Seq: 2, Features: []float64{0.5, -1, math.Inf(1), math.NaN()}},
		Verdict{Stream: 1, Seq: 2, Flags: FlagMalware, Class: 2, Score: 0.9, Smoothed: 0.8},
		CloseStream{Stream: 1},
		StreamSummary{Stream: 1, ModelVersion: 1, Samples: 100, Shed: 3, Alarms: 1, MaxSmoothed: 0.97},
		Heartbeat{Nanos: 42},
		Error{Code: CodeProtocol, Msg: "bad"},
	} {
		buf, err := Append(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)-1]) // truncated
	}
	f.Add([]byte{0, 0, 0, 1, 0x7f})          // unknown type
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0}) // absurd length

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := Decode(data)
		if err != nil {
			if fr != nil || n != 0 {
				t.Fatalf("failed Decode returned frame=%v n=%d", fr, n)
			}
			return
		}
		if n < 5 || n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		re, err := Append(nil, fr)
		if err != nil {
			t.Fatalf("re-encode of decoded frame %#v: %v", fr, err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("non-canonical encoding:\n in  %x\n out %x", data[:n], re)
		}
		r := NewReader(bytes.NewReader(data))
		rf, rerr := r.Next()
		if rerr != nil {
			t.Fatalf("Decode accepted the prefix but Reader failed: %v", rerr)
		}
		if rf.Type() != fr.Type() {
			t.Fatalf("Reader decoded type 0x%02x, Decode 0x%02x", rf.Type(), fr.Type())
		}
	})
}

// FuzzDecodePayload drives the inner payload decoder directly so the fuzzer
// does not have to learn the length header to reach field parsing.
func FuzzDecodePayload(f *testing.F) {
	f.Add([]byte{TypeSample, 0, 0, 0, 1, 0, 0, 0, 2, 0, 1, 63, 240, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{TypeHello, 0, 1, 0, 0})
	f.Add([]byte{TypeError, 0, 1, 0, 3, 'b', 'a', 'd'})
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := DecodePayload(body)
		if err == nil && fr == nil {
			t.Fatal("nil frame with nil error")
		}
	})
}

// FuzzReaderBurst walks one arbitrary byte stream three times: the way
// the front end's read loop does (Ready, then ReadSample, then Next for
// any other frame type), the way the gateway's relay does (VerdictRun,
// then Next when the run is empty), and with repeated Decode. The Reader
// walks must agree with Decode frame by frame (every field, or every byte
// of a relayed Verdict, and the bytes consumed) and stop where it stops
// for the same reason: where Decode reports ErrIncomplete the Reader
// reports the end of the stream, and where Decode reports a malformed
// frame, a Verdict of the wrong length among them, so does the Reader. A
// frame Ready calls buffered must be read without touching the stream.
// No walk may panic.
func FuzzReaderBurst(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		walkRelay(t, data)
		src := bytes.NewReader(data)
		r := NewReader(src)
		var s Sample
		for off := 0; ; {
			want, n, derr := Decode(data[off:])
			ready, unread := r.Ready(), src.Len()
			took, err := r.ReadSample(&s)
			var got Frame = s
			if !took && err == nil {
				got, err = r.Next()
			}
			if ready && src.Len() != unread {
				t.Fatalf("at byte %d: Ready, yet reading the frame read the stream", off)
			}
			if derr != nil {
				sameEnd(t, data, off, derr, err)
				return
			}
			if err != nil {
				t.Fatalf("at byte %d: Decode read a %T, Reader failed: %v", off, want, err)
			}
			if took != (want.Type() == TypeSample) {
				t.Fatalf("at byte %d: ReadSample took=%v for frame type 0x%02x", off, took, want.Type())
			}
			// The encoding is canonical, so equal encodings mean equal
			// frames, NaN payloads included.
			enc, err := Append(nil, got)
			if err != nil {
				t.Fatalf("at byte %d: re-encoding %#v: %v", off, got, err)
			}
			if !bytes.Equal(enc, data[off:off+n]) {
				t.Fatalf("at byte %d: Reader read %x, Decode %x", off, enc, data[off:off+n])
			}
			off += n
			if consumed := len(data) - src.Len() - r.Buffered(); consumed != off {
				t.Fatalf("Reader consumed %d bytes, Decode %d", consumed, off)
			}
		}
	})
}

// walkRelay walks data as the gateway's relay does: each run VerdictRun
// returns must be, frame by frame, the bytes of the Verdicts Decode reads
// at those offsets, an empty run must stand before a frame of another
// type, which Next reads, and the walk must end where Decode's does, for
// the same reason.
func walkRelay(t *testing.T, data []byte) {
	src := bytes.NewReader(data)
	r := NewReader(src)
	for off := 0; ; {
		if consumed := len(data) - src.Len() - r.Buffered(); consumed != off {
			t.Fatalf("relay walk consumed %d bytes, Decode %d", consumed, off)
		}
		run, frames, err := r.VerdictRun()
		if err == nil && frames == 0 {
			var got Frame
			if got, err = r.Next(); err == nil {
				if got.Type() == TypeVerdict {
					t.Fatalf("at byte %d: VerdictRun returned an empty run before a Verdict", off)
				}
				want, n, derr := Decode(data[off:])
				if derr != nil || want.Type() != got.Type() {
					t.Fatalf("at byte %d: Next read a %T, Decode %T (%v)", off, got, want, derr)
				}
				off += n
				continue
			}
		}
		if err != nil {
			_, _, derr := Decode(data[off:])
			if derr == nil {
				t.Fatalf("at byte %d: Decode read a frame, the relay walk failed: %v", off, err)
			}
			sameEnd(t, data, off, derr, err)
			return
		}
		if len(run) != frames*(4+verdictBody) {
			t.Fatalf("at byte %d: a run of %d frames in %d bytes", off, frames, len(run))
		}
		for i := 0; i < frames; i++ {
			want, n, derr := Decode(data[off:])
			if derr != nil || want.Type() != TypeVerdict {
				t.Fatalf("at byte %d: frame %d of a run, Decode read %T (%v)", off, i, want, derr)
			}
			if frame := run[i*(4+verdictBody) : (i+1)*(4+verdictBody)]; !bytes.Equal(frame, data[off:off+n]) {
				t.Fatalf("at byte %d: frame %d of a run is %x, Decode read %x", off, i, frame, data[off:off+n])
			}
			off += n
		}
		r.Discard(len(run))
	}
}

// sameEnd requires a Reader walk to stop at byte off of data with err
// for the reason Decode stopped there with derr: the end of the stream
// where Decode wants more input, a malformed frame where it found one.
func sameEnd(t *testing.T, data []byte, off int, derr, err error) {
	t.Helper()
	switch {
	case errors.Is(derr, ErrIncomplete):
		end := io.ErrUnexpectedEOF
		if off == len(data) {
			end = io.EOF
		}
		if err != end {
			t.Fatalf("at byte %d: Decode: %v; Reader: %v, want %v", off, derr, err, end)
		}
	case errors.Is(derr, ErrMalformed):
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("at byte %d: Decode: %v; Reader: %v, want ErrMalformed", off, derr, err)
		}
	default:
		t.Fatalf("at byte %d: Decode error %v wraps neither ErrIncomplete nor ErrMalformed", off, derr)
	}
}
