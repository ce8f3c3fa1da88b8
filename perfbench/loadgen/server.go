package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/perfbench/internal/deploy"
)

// readyTimeout bounds a server's start-up: open, seed and listen.
const readyTimeout = 90 * time.Second

// deployment is a running server process and the load generator's pools to
// its loaded data centers, one connection each.
type deployment struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
	addrs  []string
	pools  [loadedDCs]*client.Pool
	exited chan struct{} // closed once cmd.Wait returns

	mu sync.Mutex // serializes stats requests
}

// live tracks every running server so a failing or interrupted run can
// kill them.
var live struct {
	sync.Mutex
	deps map[*deployment]struct{}
}

// start launches the server binary with the deployment parameters, waits
// until it has seeded the keyspace and listens, and dials the pools: the
// set-up a client of the store waits for before its first request.
func start(bin string, p deploy.Params) (*deployment, error) {
	var args []string
	if p.WAN {
		args = append(args, "-wan")
	}
	if p.DataDir != "" {
		args = append(args, "-data-dir", p.DataDir)
	}
	if p.Fsync {
		args = append(args, "-fsync")
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The server must not outlive the load generator, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	d := &deployment{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout), exited: make(chan struct{})}
	live.Lock()
	if live.deps == nil {
		live.deps = make(map[*deployment]struct{})
	}
	live.deps[d] = struct{}{}
	live.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status is reported by close
		live.Lock()
		delete(live.deps, d)
		live.Unlock()
		close(d.exited)
	}()

	ready := make(chan error, 1)
	go func() {
		line, err := d.stdout.ReadString('\n')
		if err == nil && !strings.HasPrefix(line, "ready ") {
			err = fmt.Errorf("server said %q", line)
		}
		if err == nil {
			d.addrs = strings.Fields(line)[1:]
		}
		ready <- err
	}()
	select {
	case err = <-ready:
	case <-time.After(readyTimeout):
		err = errors.New("server not ready in time")
	}
	if err == nil && len(d.addrs) < loadedDCs {
		err = fmt.Errorf("server listens on %d DCs", len(d.addrs))
	}
	for dc := 0; err == nil && dc < loadedDCs; dc++ {
		d.pools[dc], err = client.DialPool(client.PoolConfig{Addr: d.addrs[dc], Conns: 1})
		if err == nil {
			err = d.pools[dc].Session().Ping()
		}
	}
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("server start-up: %w", err)
	}
	return d, nil
}

// stats asks the server for a snapshot of the store's counters.
func (d *deployment) stats() (deploy.Snapshot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var s deploy.Snapshot
	if _, err := io.WriteString(d.stdin, "stats\n"); err != nil {
		return s, fmt.Errorf("stats request: %w", err)
	}
	line, err := d.stdout.ReadBytes('\n')
	if err != nil {
		return s, fmt.Errorf("stats reply: %w", err)
	}
	if err := json.Unmarshal(line, &s); err != nil {
		return s, fmt.Errorf("stats reply: %w", err)
	}
	if s.StorageError != "" {
		return s, fmt.Errorf("server storage error: %s", s.StorageError)
	}
	return s, nil
}

// cpuTime reads the server's CPU time (user + system) from /proc.
func (d *deployment) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	var ticks int64
	for _, field := range f[11:13] {
		n, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc stat: %w", err)
		}
		ticks += n
	}
	// USER_HZ is 100 on every Linux ABI Go supports.
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// peakRSS reads the server's peak resident set (VmHWM) in MiB.
func (d *deployment) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// close shuts the server down cleanly and waits for it to exit; a server
// that does not exit in time is killed.
func (d *deployment) close() error {
	for _, p := range d.pools {
		if p != nil {
			p.Close()
		}
	}
	_, err := io.WriteString(d.stdin, "quit\n")
	_ = d.stdin.Close()
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.kill()
		return errors.New("server did not exit; killed")
	}
	if err != nil {
		return fmt.Errorf("quit server: %w", err)
	}
	if !d.cmd.ProcessState.Success() {
		return fmt.Errorf("server exited: %v", d.cmd.ProcessState)
	}
	return nil
}

// kill stops the server at once and waits for it.
func (d *deployment) kill() {
	for _, p := range d.pools {
		if p != nil {
			p.Close()
		}
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// killAll kills every server still running and waits for each to exit.
func killAll() {
	live.Lock()
	deps := make([]*deployment, 0, len(live.deps))
	for d := range live.deps {
		deps = append(deps, d)
	}
	live.Unlock()
	for _, d := range deps {
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}
