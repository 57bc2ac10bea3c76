package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// tools are the repository's own commands the benchmark drives as real
// processes, built from source into the run's bin directory.
var tools = []string{"netgen", "silcbuild", "silcserve"}

// buildTools compiles the tools from the checkout at root into binDir. The
// go command's own cache makes the second and later builds a no-op.
func buildTools(root, binDir string) error {
	args := []string{"build", "-o", binDir + string(filepath.Separator)}
	for _, t := range tools {
		args = append(args, "./cmd/"+t)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build of %v in %s: %v\n%s", tools, root, err, out)
	}
	return nil
}

// tail keeps the last few KiB written to it: a dead server's last words.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4 << 10

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailBytes:]...)
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// proc is one spawned child in its own process group.
type proc struct {
	name   string
	cmd    *exec.Cmd
	stderr tail
	done   chan struct{} // closed once Wait has returned
	url    string        // base URL of a server; empty for a batch tool
}

// live tracks every running child so that a signal, a timeout or a panic in
// the benchmark leaves none behind.
var live struct {
	mu    sync.Mutex
	procs map[*proc]struct{}
}

func start(name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stderr = &p.stderr
	p.cmd.Stdout = &p.stderr
	// Its own group, so one kill reaches anything it forks; and the kernel
	// kills it should the benchmark itself be killed outright.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	live.mu.Lock()
	defer live.mu.Unlock()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	if live.procs == nil {
		live.procs = make(map[*proc]struct{})
	}
	live.procs[p] = struct{}{}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// runTool runs a batch tool to completion.
func runTool(name, bin string, args ...string) error {
	p, err := start(name, bin, args...)
	if err != nil {
		return err
	}
	<-p.done
	p.forget()
	if !p.cmd.ProcessState.Success() {
		return fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), p.cmd.ProcessState, p.stderr.String())
	}
	return nil
}

func (p *proc) forget() {
	live.mu.Lock()
	delete(live.procs, p)
	live.mu.Unlock()
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) dead() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop kills the process group and waits until the process has ended.
func (p *proc) stop() {
	syscall.Kill(-p.pid(), syscall.SIGKILL)
	<-p.done
	p.forget()
}

// stopAll ends every child still running; safe to call from any goroutine.
func stopAll() {
	live.mu.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.mu.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// diedError describes a server that ended while it was still needed.
func (p *proc) diedError() error {
	return fmt.Errorf("%s (pid %d) died: %v; last output:\n%s", p.name, p.pid(), p.cmd.ProcessState, p.stderr.String())
}

// freeAddr asks the OS for a free loopback port. The listener is closed
// before the server binds it; nothing else on this machine races for ports
// in between.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

const readyDeadline = 60 * time.Second

// startServer spawns one silcserve on a free port and waits for /readyz.
func startServer(ctx context.Context, name, bin string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p, err := start(name, bin, append(args, "-addr", addr)...)
	if err != nil {
		return nil, err
	}
	p.url = "http://" + addr
	if err := p.waitReady(ctx); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func (p *proc) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, readyDeadline)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	for {
		if p.dead() {
			return p.diedError()
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/readyz", nil)
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready after %v; last output:\n%s", p.name, readyDeadline, p.stderr.String())
		case <-p.done:
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU times.
// Linux fixes it at 100 on every architecture Go runs on.
const clockTick = 100

// parseProcStat returns utime+stime, in seconds, from the text of
// /proc/<pid>/stat. The command name sits in parentheses and may itself hold
// spaces and parentheses, so fields are counted from the last ')'.
func parseProcStat(text string) (float64, error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command name")
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("proc stat: too few fields")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: bad cpu time")
	}
	return float64(utime+stime) / clockTick, nil
}

// cpuSeconds is the user+system CPU time the process has used so far.
func (p *proc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid()))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(data))
}

// parseVmHWM returns the peak resident set, in MiB, from the text of
// /proc/<pid>/status.
func parseVmHWM(text string) (float64, error) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("proc status: no VmHWM line")
}

func (p *proc) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(data))
}

// scrape fetches a server's /metrics as parsed series.
func (p *proc) scrape() (promSeries, error) {
	resp, err := http.Get(p.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: %s", p.name, resp.Status)
	}
	return parsePromText(buf.String())
}
