package telemetry

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// The debug server speaks just enough HTTP/1.1 for curl, Prometheus
// scrapers, Go's net/http client and go tool pprof: one request per
// connection, a bounded head and body, and a response whose body ends when
// the connection closes.
const (
	// maxHead bounds the request line plus headers.
	maxHead = 8 << 10
	// maxBody bounds a request body: a symbol POST's address list.
	maxBody = 64 << 10
)

// Handler answers one request on the debug server. It may set the
// response's status and content type, then writes the body to w.
type Handler func(w *Response, r *Request)

// Request is one parsed debug request.
type Request struct {
	Method string
	Path   string
	Query  url.Values
	Body   []byte // as declared by Content-Length; empty without one

	rawQuery string
	done     <-chan struct{} // closed when the server stops waiting for the request
}

// sleep waits for d, or until the server gives up on the request.
func (r *Request) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.done:
	}
}

// Response is a Handler's side of one exchange. The status line and
// headers go out with the first Write, so a handler sets the status and
// content type before it writes the body.
type Response struct {
	bw     *bufio.Writer
	status int
	ctype  string
	allow  string // the Allow header of a 405
	sent   bool
}

const textPlain = "text/plain; charset=utf-8"

func newResponse(w io.Writer) *Response {
	return &Response{bw: bufio.NewWriter(w), status: 200, ctype: textPlain}
}

// SetContentType sets the Content-Type header; the default is plain text.
func (w *Response) SetContentType(ct string) { w.ctype = ct }

// Error answers with status code and a one-line plain-text message. Call
// it before the first Write.
func (w *Response) Error(code int, msg string) {
	w.status, w.ctype = code, textPlain
	io.WriteString(w, msg+"\n")
}

// Write sends the head on the first call, then buffers p for the body.
func (w *Response) Write(p []byte) (int, error) {
	if !w.sent {
		w.sent = true
		fmt.Fprintf(w.bw, "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nConnection: close\r\n", w.status, statusText[w.status], w.ctype)
		if w.allow != "" {
			fmt.Fprintf(w.bw, "Allow: %s\r\n", w.allow)
		}
		w.bw.WriteString("\r\n")
	}
	return w.bw.Write(p)
}

// finish sends the head of an empty response and flushes the body.
func (w *Response) finish() error {
	w.Write(nil)
	return w.bw.Flush()
}

// statusText holds the reason phrase of every status the server sends.
var statusText = map[int]string{
	200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
	413: "Content Too Large", 431: "Request Header Fields Too Large",
	500: "Internal Server Error", 501: "Not Implemented", 503: "Service Unavailable",
}

// refusal is a request answered with an error status instead of a handler.
type refusal struct {
	code int
	msg  string
}

func (e *refusal) Error() string { return e.msg }

// errSilent is a request closed unanswered: its connection ended before
// the first byte, or a read failed or hit the head deadline.
var errSilent = errors.New("no request")

// readRequest reads one request from r: a head of at most maxHead bytes
// and the body its Content-Length declares, at most maxBody. It never
// reads more than maxHead+maxBody bytes from r. A request it cannot serve
// comes back as a *refusal; one that never began, as errSilent.
func readRequest(r io.Reader) (*Request, error) {
	br := bufio.NewReaderSize(io.LimitReader(r, maxHead+maxBody), maxHead)
	head := 0
	readLine := func() (string, error) {
		line, err := br.ReadSlice('\n')
		head += len(line)
		switch {
		case head > maxHead || errors.Is(err, bufio.ErrBufferFull):
			return "", &refusal{431, "request head exceeds 8 KiB"}
		case err != nil && head == 0:
			return "", errSilent
		case errors.Is(err, io.EOF):
			return "", &refusal{400, "truncated request"}
		case err != nil:
			return "", errSilent
		}
		return strings.TrimSuffix(strings.TrimSuffix(string(line), "\n"), "\r"), nil
	}

	line, err := readLine()
	if err != nil {
		return nil, err
	}
	method, rest, ok1 := strings.Cut(line, " ")
	target, proto, ok2 := strings.Cut(rest, " ")
	if !ok1 || !ok2 || !strings.HasPrefix(target, "/") || (proto != "HTTP/1.1" && proto != "HTTP/1.0") {
		return nil, &refusal{400, "malformed request line"}
	}
	req := &Request{Method: method}
	req.Path, req.rawQuery, _ = strings.Cut(target, "?")
	req.Query, _ = url.ParseQuery(req.rawQuery)

	length := -1
	for {
		line, err := readLine()
		if err != nil {
			return nil, err
		}
		if line == "" {
			break
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, &refusal{400, "malformed header line"}
		}
		value = strings.TrimSpace(value)
		switch {
		case strings.EqualFold(name, "Transfer-Encoding"):
			return nil, &refusal{501, "only Content-Length request bodies are supported"}
		case strings.EqualFold(name, "Content-Length"):
			n, err := strconv.Atoi(value)
			if err != nil || n < 0 || (length >= 0 && n != length) {
				return nil, &refusal{400, "bad Content-Length"}
			}
			length = n
		}
	}
	if length > maxBody {
		return nil, &refusal{413, "request body exceeds 64 KiB"}
	}
	if length > 0 {
		req.Body = make([]byte, length)
		if _, err := io.ReadFull(br, req.Body); err != nil {
			return nil, &refusal{400, "truncated request body"}
		}
	}
	return req, nil
}
