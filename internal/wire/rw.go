package wire

import (
	"bufio"
	"encoding/binary"
	"io"
)

// Reader decodes a frame stream from an io.Reader. It is not safe for
// concurrent use; a connection owns one Reader on its read side.
//
// Frames are decoded in place from the Reader's buffer, which holds a
// frame of MaxPayload whole, so reading one copies nothing out of the
// stream. A read loop takes what one buffered read delivered, the read
// burst, without blocking: while Ready reports the next frame whole,
// ReadSample decodes Samples into a caller-owned Sample (no allocation)
// and Next decodes every other frame. A relay takes Verdicts undecoded:
// VerdictRun returns a run of them as bytes and Discard consumes it.
type Reader struct {
	br *bufio.Reader
}

// NewReader builds a buffered frame reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 4+MaxPayload)}
}

// Ready reports whether the next frame is already buffered whole, so that
// ReadSample or Next returns without reading from the underlying reader.
func (r *Reader) Ready() bool {
	n := r.br.Buffered()
	if n < 4 {
		return false
	}
	hdr, _ := r.br.Peek(4)
	return binary.BigEndian.Uint32(hdr) <= uint32(n-4)
}

// ReadSample reads the next frame into s if it is a Sample, reusing
// s.Features' backing array when it is wide enough, and reports true. Any
// other frame type is left unread (false, nil) for Next. It blocks until
// the next frame is buffered whole, so a following Next does not block.
// Errors are those of Next.
func (r *Reader) ReadSample(s *Sample) (bool, error) {
	frame, err := r.fill()
	if err != nil || frame[4] != TypeSample {
		return false, err
	}
	err = decodeSample(frame[4:], s)
	r.br.Discard(len(frame))
	return err == nil, err
}

// VerdictRun blocks until the next frame is buffered whole, then returns
// the run of whole Verdict frames at the head of the buffer, length
// headers included, and how many frames the run holds, without consuming
// them: Discard(len(run)) does, once the bytes are used. The bytes are
// the Reader's own and valid only until its next read. The run is empty
// when the next frame is of another type, for ReadSample or Next. A
// Verdict's decode refuses only a body of another length than
// verdictBody, so the run holds exactly the frames Next would decode, and
// a Verdict-typed frame of another length at the head returns an error
// wrapping ErrMalformed. Other errors are those of Next.
func (r *Reader) VerdictRun() (run []byte, frames int, err error) {
	frame, err := r.fill()
	if err != nil || frame[4] != TypeVerdict {
		return nil, 0, err
	}
	if len(frame) != 4+verdictBody {
		return nil, 0, malformed("verdict body of %d bytes, want %d", len(frame)-4, verdictBody)
	}
	buf, _ := r.br.Peek(r.br.Buffered())
	n := 0
	for len(buf)-n >= 4+verdictBody && buf[n+4] == TypeVerdict &&
		binary.BigEndian.Uint32(buf[n:]) == verdictBody {
		n += 4 + verdictBody
	}
	return buf[:n], n / (4 + verdictBody), nil
}

// Discard consumes the next n buffered bytes: a run VerdictRun returned.
func (r *Reader) Discard(n int) { r.br.Discard(n) }

// Next reads and decodes the next frame. A clean end of stream returns
// io.EOF; a stream truncated mid-frame returns io.ErrUnexpectedEOF; an
// undecodable frame returns an error wrapping ErrMalformed. Other errors
// are the underlying reader's.
func (r *Reader) Next() (Frame, error) {
	frame, err := r.fill()
	if err != nil {
		return nil, err
	}
	f, err := DecodePayload(frame[4:])
	r.br.Discard(len(frame))
	return f, err
}

// fill blocks until the next frame is buffered whole, validates its length
// header and returns the frame, header included, without consuming it.
func (r *Reader) fill() ([]byte, error) {
	hdr, err := r.peek(4)
	if err != nil {
		return nil, err
	}
	length := int(binary.BigEndian.Uint32(hdr))
	if length < 1 {
		return nil, errZeroLength
	}
	if length > MaxPayload {
		return nil, ErrFrameTooLarge
	}
	return r.peek(4 + length)
}

// peek returns the next n bytes without consuming them, reading until they
// are buffered. A stream that ends at a frame boundary returns io.EOF, one
// that ends inside a frame io.ErrUnexpectedEOF.
func (r *Reader) peek(n int) ([]byte, error) {
	b, err := r.br.Peek(n)
	if err == io.EOF && len(b) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// Buffered reports how many bytes are already read into the Reader's
// buffer and not yet consumed. A relay can use it to batch flushes: keep
// copying frames while more input is buffered, flush once it would block.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// Writer encodes frames onto an io.Writer through a buffer, so a burst of
// small frames costs one syscall. It is not safe for concurrent use;
// callers that share a connection's write side serialize around it.
type Writer struct {
	bw      *bufio.Writer
	scratch []byte
}

// NewWriter builds a buffered frame writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 64<<10)}
}

// Write encodes one frame into the buffer. The frame reaches the wire on
// Flush or when the buffer fills.
func (w *Writer) Write(f Frame) error {
	b, err := Append(w.scratch[:0], f)
	if err != nil {
		return err
	}
	w.scratch = b[:0]
	_, err = w.bw.Write(b)
	return err
}

// WriteRaw buffers frames that are already encoded, such as a run
// Reader.VerdictRun returned, byte for byte.
func (w *Writer) WriteRaw(frames []byte) error {
	_, err := w.bw.Write(frames)
	return err
}

// Flush pushes all buffered frames to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Buffered reports how many encoded bytes wait for the next Flush.
func (w *Writer) Buffered() int { return w.bw.Buffered() }
