package cli

import (
	"io"
	"net/http"
	"testing"
	"time"

	"twosmart/internal/telemetry"
)

// TestDebugHandleMountsAtStart pins DebugHandle's one path: a handler
// registered before Start is served once Start brings the debug server
// up, and registering one after Start panics.
func TestDebugHandleMountsAtStart(t *testing.T) {
	// Built by hand, not by New: New registers its flags on the process's
	// flag set, once.
	a := &App{Tool: "clitest", Telemetry: telemetry.New(), telemetryAddr: "127.0.0.1:0", quiet: true}
	a.DebugHandle("/debug/extra", func(w *telemetry.Response, _ *telemetry.Request) {
		io.WriteString(w, "extra")
	})
	a.Start()
	defer a.Close()

	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + a.server.Addr() + "/debug/extra")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "extra" {
		t.Fatalf("/debug/extra = %d %q, want the handler registered before Start", resp.StatusCode, body)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("DebugHandle after Start did not panic")
		}
	}()
	a.DebugHandle("/debug/late", func(*telemetry.Response, *telemetry.Request) {})
}
