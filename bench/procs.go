package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// buildDaemons compiles the serving binaries from the checkout into dir.
func buildDaemons(ctx context.Context, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/smartrain", "./cmd/smartserve", "./cmd/smartgw")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out.String())
	}
	return nil
}

// trainModel trains the served model and its stage-0 envelope with the
// fixed training seed 1, independent of the workload seed.
func trainModel(ctx context.Context, bin, dir string) (model, env string, err error) {
	model, env = filepath.Join(dir, "det.json"), filepath.Join(dir, "env.json")
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "smartrain"),
		"-scale", "0.002", "-runtime", "-seed", "1", "-model", model, "-envelope", env, "-quiet")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", "", fmt.Errorf("smartrain: %w\n%s", err, out.String())
	}
	return model, env, nil
}

// proc is one spawned serving process.
type proc struct {
	name      string
	cmd       *exec.Cmd
	addr      string // wire listen address, from the "listening" line
	telemetry string // -telemetry-addr bound address, when asked for

	readers sync.WaitGroup
	mu      sync.Mutex
	tail    []string // last lines of stderr, for failure reports
}

// spawn starts a daemon and waits until it prints its listen address
// (and, with telemetry, its debug-server address).
func spawn(ctx context.Context, name, bin string, telemetry bool, args ...string) (*proc, error) {
	if telemetry {
		args = append(args, "-telemetry-addr", "127.0.0.1:0")
	}
	p := &proc{name: name, cmd: exec.Command(bin, args...)}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	listening := make(chan string, 1)
	debug := make(chan string, 1)
	p.readers.Add(2)
	go p.scan(stdout, func(line string) {
		if addr, ok := strings.CutPrefix(line, "listening "); ok {
			trySend(listening, strings.TrimSpace(addr))
		}
	})
	go p.scan(stderr, func(line string) {
		p.mu.Lock()
		if p.tail = append(p.tail, line); len(p.tail) > 20 {
			p.tail = p.tail[1:]
		}
		p.mu.Unlock()
		if strings.Contains(line, "telemetry server listening") {
			if addr := logField(line, "addr"); addr != "" {
				trySend(debug, addr)
			}
		}
	})
	timeout := time.NewTimer(15 * time.Second)
	defer timeout.Stop()
	for p.addr == "" || (telemetry && p.telemetry == "") {
		select {
		case p.addr = <-listening:
		case p.telemetry = <-debug:
		case <-timeout.C:
			p.stop()
			return nil, fmt.Errorf("%s did not start listening within 15s: %s", name, p.stderrTail())
		case <-ctx.Done():
			p.stop()
			return nil, ctx.Err()
		}
	}
	return p, nil
}

func trySend(ch chan string, v string) {
	select {
	case ch <- v:
	default:
	}
}

func (p *proc) scan(r io.Reader, line func(string)) {
	defer p.readers.Done()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		line(sc.Text())
	}
	_, _ = io.Copy(io.Discard, r) // an over-long line: keep the pipe drained
}

func (p *proc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// logField extracts key=value from a log/slog text line.
func logField(line, key string) string {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// stop sends SIGTERM (the daemons drain and exit 130), escalates to
// SIGKILL after five seconds, and waits for the process and its output
// readers to finish.
func (p *proc) stop() {
	if p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exited: Wait reports it
	done := make(chan struct{})
	go func() {
		p.readers.Wait()
		_ = p.cmd.Wait() // 130 after a drain; any status is fine at teardown
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}

// procStat is one reading of a process's resource use.
type procStat struct {
	cpu   time.Duration // utime + stime
	hwmKB uint64        // VmHWM: peak resident set
}

func readProcStat(pid int) (procStat, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	cpu, err := parseStatCPU(string(stat))
	if err != nil {
		return procStat{}, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procStat{}, err
	}
	hwm, err := parseStatusKB(string(status), "VmHWM")
	if err != nil {
		return procStat{}, fmt.Errorf("/proc/%d/status: %w", pid, err)
	}
	return procStat{cpu: cpu, hwmKB: hwm}, nil
}

// parseStatCPU returns utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("only %d fields after the command", len(f))
	}
	var ticks uint64
	for _, s := range f[11:13] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("cpu field %q: %w", s, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// parseStatusKB returns a "Key:   N kB" value from /proc/<pid>/status.
func parseStatusKB(status, key string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed %s line %q", key, line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("no %s line", key)
}
