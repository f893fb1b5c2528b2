// Package wire defines the binary frame protocol spoken between the
// streaming detection server (internal/serve, cmd/smartserve) and its
// agents (cmd/smartload): a compact length-prefixed codec carrying the
// run-time HPC sample stream one direction and verdicts the other.
//
// Every frame is
//
//	uint32 length | uint8 type | payload
//
// with all integers big-endian, floats as IEEE-754 bits, and strings as a
// uint16 length prefix followed by UTF-8 bytes. The length field counts
// the type byte plus the payload, so a decoder can skip unknown input
// without understanding it. Payloads are strictly sized: trailing bytes
// after the last field are a decode error, which makes the encoding
// canonical (Append∘Decode is the identity on valid frames — the fuzz
// harness pins this).
//
// A session opens with a Hello/Welcome handshake that carries the
// protocol version and the server's model format version and feature
// width, so version skew fails fast with a typed error instead of a
// garbled stream. Decode never panics on malformed input
// (FuzzDecodeFrame), and every decode error wraps ErrMalformed; resource
// bounds are enforced before allocation (MaxPayload, MaxString,
// MaxFeatures).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ProtoVersion is the wire protocol generation. A server refuses a Hello
// with a different version; bump it on any incompatible frame change.
//
// History: v2 added ModelVersion to Welcome and StreamSummary so agents
// can tell which registry version scored their stream across a
// zero-downtime model swap. v3 added IngressNanos to Sample so the
// gateway tier can stamp its ingress wall clock onto forwarded samples,
// letting the shard attribute gateway→shard latency in end-to-end
// traces (internal/trace). v4 added ModelVersion to Heartbeat: the
// server fills it from its active model on echo, so the gateway's
// periodic liveness probes double as a live per-shard version feed —
// Welcome only reports the version at dial time, which goes stale the
// moment a hot swap lands (the canary rollout split depends on this).
const ProtoVersion = 4

// Codec resource bounds, enforced during decode before any allocation.
const (
	// MaxPayload bounds the type byte plus payload of one frame, so a
	// frame with its length header fits a Reader's 64 KiB buffer. The
	// largest valid frame, a Sample of MaxFeatures, is about half that.
	MaxPayload = 64<<10 - 4
	// MaxString bounds encoded strings (application and model names).
	MaxString = 1 << 10
	// MaxFeatures bounds the feature vector width of one sample frame.
	MaxFeatures = 1 << 12
)

// verdictBody is the length of every Verdict frame's body, the type byte
// plus its fixed-size payload, and so the one valid value of its length
// header.
const verdictBody = 1 + 4 + 4 + 1 + 1 + 8 + 8

// Frame type bytes.
const (
	TypeHello         = 0x01
	TypeWelcome       = 0x02
	TypeOpenStream    = 0x03
	TypeSample        = 0x04
	TypeVerdict       = 0x05
	TypeCloseStream   = 0x06
	TypeStreamSummary = 0x07
	TypeHeartbeat     = 0x08
	TypeError         = 0x09
)

// Verdict flag bits.
const (
	FlagMalware      = 1 << 0 // the sample classified as malware
	FlagAlarm        = 1 << 1 // the stream's smoothed alarm is raised
	FlagAlarmChanged = 1 << 2 // this sample raised or cleared the alarm
	FlagShortCircuit = 1 << 3 // stage-0 envelope short-circuited the sample as clear benign
)

// Error frame codes.
const (
	CodeProtocol    = 1 // malformed or out-of-order frame
	CodeVersion     = 2 // protocol version mismatch
	CodeBadStream   = 3 // unknown, duplicate or exhausted stream id
	CodeBadFeatures = 4 // sample width does not match the model
	CodeDraining    = 5 // server is shutting down
	CodeUnavailable = 6 // no healthy backend shard for the stream's route
	CodeIdle        = 7 // connection reaped after the server's idle timeout
)

// Decode errors.
var (
	// ErrIncomplete reports that the buffer ends mid-frame; the caller
	// should read more bytes and retry.
	ErrIncomplete = errors.New("wire: incomplete frame")
	// ErrMalformed is wrapped by every error that reports undecodable
	// input: a zero-length header or one above MaxPayload, an unknown type
	// byte, or a payload of the wrong size or with trailing bytes. An
	// error that does not wrap it (ErrIncomplete, or an I/O error from a
	// Reader) means the input ended or failed, not that it was wrong.
	ErrMalformed = errors.New("wire: malformed frame")
	// ErrFrameTooLarge reports a length header above MaxPayload.
	ErrFrameTooLarge = fmt.Errorf("%w: length exceeds max payload", ErrMalformed)

	errZeroLength = fmt.Errorf("%w: zero length", ErrMalformed)
)

// malformed returns a decode error wrapping ErrMalformed.
func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// Frame is one decoded protocol frame: exactly one of the concrete frame
// structs in this package.
type Frame interface {
	// Type returns the frame's wire type byte.
	Type() byte
}

// Hello is the client's first frame.
type Hello struct {
	Proto uint16 // client's ProtoVersion
	Agent string // free-form client identification for server logs
}

// Welcome is the server's handshake reply, advertising what the loaded
// model expects so the agent can fail fast on skew.
type Welcome struct {
	Proto        uint16 // server's ProtoVersion
	ModelFormat  uint16 // persist.FormatVersion of the serving model
	ModelVersion uint32 // registry version of the active model, 0 outside a registry
	NumFeatures  uint16 // feature width every Sample frame must carry
	Model        string // display name of the loaded model
}

// OpenStream starts a per-application sample stream on this connection.
// Stream ids are client-assigned and scoped to the connection; App keys
// the per-stream monitor, so it must be unique within the connection.
type OpenStream struct {
	Stream uint32
	App    string
}

// Sample carries one HPC feature vector for an open stream. Seq is a
// client-assigned sequence number echoed in the matching Verdict, which
// lets the agent measure end-to-end latency and detect shed samples.
// IngressNanos, when nonzero, is the unix-nano wall clock at which an
// upstream tier (the gateway) first accepted this sample; the scoring
// shard uses it as the origin of sampled end-to-end trace records.
// Agents sending directly leave it zero.
type Sample struct {
	Stream       uint32
	Seq          uint32
	IngressNanos uint64
	Features     []float64
}

// Verdict is the server's classification of one sample: the raw malware
// score, the EWMA-smoothed score, the routed class, and the alarm state
// bits (FlagMalware, FlagAlarm, FlagAlarmChanged).
type Verdict struct {
	Stream   uint32
	Seq      uint32
	Flags    uint8
	Class    uint8
	Score    float64
	Smoothed float64
}

// CloseStream ends a stream; the server replies with a StreamSummary.
type CloseStream struct {
	Stream uint32
}

// StreamSummary is the server's account of a closed stream: samples
// actually scored, samples shed under overload (never scored, no Verdict
// was sent), alarm raise transitions, and the peak smoothed score.
// ModelVersion is the registry version of the detector that scored the
// stream — a stream opened before a hot swap keeps reporting the version
// it was opened with, so agents can attribute verdicts across a swap.
// Behind a gateway that moved the stream between shards, Samples also
// counts the samples forwarded to its earlier shards.
type StreamSummary struct {
	Stream       uint32
	ModelVersion uint32
	Samples      uint64
	Shed         uint64
	Alarms       uint32
	MaxSmoothed  float64
}

// Heartbeat is a liveness and RTT probe. The server echoes Nanos back
// verbatim (agents use the round-trip as a write-path drain barrier)
// and fills ModelVersion from its active model, so a probing gateway
// tracks each shard's serving version live across hot swaps instead of
// trusting the dial-time Welcome. Clients send it zero.
type Heartbeat struct {
	Nanos        uint64
	ModelVersion uint32
}

// Error reports a protocol-level failure (one of the Code constants).
// Fatal errors are followed by connection close.
type Error struct {
	Code uint16
	Msg  string
}

func (Hello) Type() byte         { return TypeHello }
func (Welcome) Type() byte       { return TypeWelcome }
func (OpenStream) Type() byte    { return TypeOpenStream }
func (Sample) Type() byte        { return TypeSample }
func (Verdict) Type() byte       { return TypeVerdict }
func (CloseStream) Type() byte   { return TypeCloseStream }
func (StreamSummary) Type() byte { return TypeStreamSummary }
func (Heartbeat) Type() byte     { return TypeHeartbeat }
func (Error) Type() byte         { return TypeError }

// --- encoding ---------------------------------------------------------------

func appendU16(dst []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }
func appendF64(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendString(dst []byte, s string) ([]byte, error) {
	if len(s) > MaxString {
		return dst, fmt.Errorf("wire: string of %d bytes exceeds max %d", len(s), MaxString)
	}
	dst = appendU16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

// Append encodes one complete frame (header included) onto dst and
// returns the extended slice. The inverse of Decode.
func Append(dst []byte, f Frame) ([]byte, error) {
	// Reserve the length header; patch it once the payload is known.
	start := len(dst)
	dst = appendU32(dst, 0)
	var err error
	// Each case appends its own type byte: calling f.Type() through the
	// interface, or formatting f, would make every frame passed in escape
	// to the heap.
	switch fr := f.(type) {
	case Hello:
		dst = append(dst, TypeHello)
		dst = appendU16(dst, fr.Proto)
		dst, err = appendString(dst, fr.Agent)
	case Welcome:
		dst = append(dst, TypeWelcome)
		dst = appendU16(dst, fr.Proto)
		dst = appendU16(dst, fr.ModelFormat)
		dst = appendU32(dst, fr.ModelVersion)
		dst = appendU16(dst, fr.NumFeatures)
		dst, err = appendString(dst, fr.Model)
	case OpenStream:
		dst = append(dst, TypeOpenStream)
		dst = appendU32(dst, fr.Stream)
		dst, err = appendString(dst, fr.App)
	case Sample:
		if len(fr.Features) > MaxFeatures {
			return dst[:start], fmt.Errorf("wire: sample with %d features exceeds max %d", len(fr.Features), MaxFeatures)
		}
		dst = append(dst, TypeSample)
		dst = appendU32(dst, fr.Stream)
		dst = appendU32(dst, fr.Seq)
		dst = appendU64(dst, fr.IngressNanos)
		dst = appendU16(dst, uint16(len(fr.Features)))
		for _, v := range fr.Features {
			dst = appendF64(dst, v)
		}
	case Verdict:
		dst = append(dst, TypeVerdict)
		dst = appendU32(dst, fr.Stream)
		dst = appendU32(dst, fr.Seq)
		dst = append(dst, fr.Flags, fr.Class)
		dst = appendF64(dst, fr.Score)
		dst = appendF64(dst, fr.Smoothed)
	case CloseStream:
		dst = append(dst, TypeCloseStream)
		dst = appendU32(dst, fr.Stream)
	case StreamSummary:
		dst = append(dst, TypeStreamSummary)
		dst = appendU32(dst, fr.Stream)
		dst = appendU32(dst, fr.ModelVersion)
		dst = appendU64(dst, fr.Samples)
		dst = appendU64(dst, fr.Shed)
		dst = appendU32(dst, fr.Alarms)
		dst = appendF64(dst, fr.MaxSmoothed)
	case Heartbeat:
		dst = append(dst, TypeHeartbeat)
		dst = appendU64(dst, fr.Nanos)
		dst = appendU32(dst, fr.ModelVersion)
	case Error:
		dst = append(dst, TypeError)
		dst = appendU16(dst, fr.Code)
		dst, err = appendString(dst, fr.Msg)
	default:
		return dst[:start], errors.New("wire: cannot encode a frame type from outside this package")
	}
	if err != nil {
		return dst[:start], err
	}
	length := len(dst) - start - 4
	binary.BigEndian.PutUint32(dst[start:], uint32(length))
	return dst, nil
}

// --- decoding ---------------------------------------------------------------

// reader is a bounds-checked cursor over one frame payload. Every take
// method fails (sticky err) instead of panicking, so malformed input can
// never index out of range.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf)-r.off < n {
		r.err = malformed("truncated payload (want %d more bytes, have %d)", n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) str() string {
	n := int(r.u16())
	if n > MaxString {
		r.err = malformed("string of %d bytes exceeds max %d", n, MaxString)
		return ""
	}
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// finish enforces strict sizing: a payload with bytes left over is
// malformed, which keeps the encoding canonical.
func (r *reader) finish(f Frame) (Frame, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.buf) {
		return nil, malformed("%d trailing bytes after %T payload", len(r.buf)-r.off, f)
	}
	return f, nil
}

// decodeSample decodes a Sample frame body (type byte plus payload) into
// s. s.Features, when wide enough, backs the decoded features. It is the
// one Sample decoder: DecodePayload and Reader.ReadSample both use it.
func decodeSample(body []byte, s *Sample) error {
	r := reader{buf: body, off: 1}
	s.Stream, s.Seq, s.IngressNanos = r.u32(), r.u32(), r.u64()
	n := int(r.u16())
	if r.err != nil {
		return r.err
	}
	if n > MaxFeatures {
		return malformed("sample with %d features exceeds max %d", n, MaxFeatures)
	}
	// Size-check before allocating so a lying header cannot force a large
	// allocation, and so no bytes trail the features: n features need
	// exactly 8n more bytes.
	if len(body)-r.off != 8*n {
		return malformed("sample payload has %d feature bytes, want %d", len(body)-r.off, 8*n)
	}
	if cap(s.Features) >= n {
		s.Features = s.Features[:n]
	} else {
		s.Features = make([]float64, n)
	}
	raw := body[r.off:]
	for i := range s.Features {
		s.Features[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[8*i:]))
	}
	return nil
}

// DecodePayload decodes the body of one frame (the type byte plus
// payload, without the length header). The frame shares no memory with
// body.
func DecodePayload(body []byte) (Frame, error) {
	if len(body) == 0 {
		return nil, malformed("empty frame body")
	}
	r := &reader{buf: body, off: 1}
	switch body[0] {
	case TypeHello:
		f := Hello{Proto: r.u16(), Agent: r.str()}
		return r.finish(f)
	case TypeWelcome:
		f := Welcome{Proto: r.u16(), ModelFormat: r.u16(), ModelVersion: r.u32(), NumFeatures: r.u16(), Model: r.str()}
		return r.finish(f)
	case TypeOpenStream:
		f := OpenStream{Stream: r.u32(), App: r.str()}
		return r.finish(f)
	case TypeSample:
		var s Sample
		if err := decodeSample(body, &s); err != nil {
			return nil, err
		}
		return s, nil
	case TypeVerdict:
		f := Verdict{Stream: r.u32(), Seq: r.u32(), Flags: r.u8(), Class: r.u8(), Score: r.f64(), Smoothed: r.f64()}
		return r.finish(f)
	case TypeCloseStream:
		f := CloseStream{Stream: r.u32()}
		return r.finish(f)
	case TypeStreamSummary:
		f := StreamSummary{Stream: r.u32(), ModelVersion: r.u32(), Samples: r.u64(), Shed: r.u64(), Alarms: r.u32(), MaxSmoothed: r.f64()}
		return r.finish(f)
	case TypeHeartbeat:
		f := Heartbeat{Nanos: r.u64(), ModelVersion: r.u32()}
		return r.finish(f)
	case TypeError:
		f := Error{Code: r.u16(), Msg: r.str()}
		return r.finish(f)
	default:
		return nil, malformed("unknown frame type 0x%02x", body[0])
	}
}

// Decode decodes the first complete frame in buf, returning the frame and
// the number of bytes consumed. It returns ErrIncomplete when buf ends
// mid-frame (read more and retry); any other error wraps ErrMalformed,
// ErrFrameTooLarge among them. It never panics on malformed input.
func Decode(buf []byte) (Frame, int, error) {
	if len(buf) < 4 {
		return nil, 0, ErrIncomplete
	}
	length := int(binary.BigEndian.Uint32(buf))
	if length < 1 {
		return nil, 0, errZeroLength
	}
	if length > MaxPayload {
		return nil, 0, ErrFrameTooLarge
	}
	if len(buf) < 4+length {
		return nil, 0, ErrIncomplete
	}
	f, err := DecodePayload(buf[4 : 4+length])
	if err != nil {
		return nil, 0, err
	}
	return f, 4 + length, nil
}
