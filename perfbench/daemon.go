package main

import (
	"bufio"
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
)

// daemon is one sketchd child process. Every daemon is tracked in the live
// set from start to reap, so each exit path of the benchmark (return,
// error, panic, signal) can kill and reap whatever is still running, and
// Pdeathsig takes the child down even if the benchmark is SIGKILLed.
type daemon struct {
	cmd         *exec.Cmd
	addr        string
	metricsAddr string
	done        chan struct{} // closed once the process has been reaped
	waitErr     error
}

var live = struct {
	sync.Mutex
	set map[*daemon]struct{}
}{set: map[*daemon]struct{}{}}

// readyTimeout bounds how long a child may take to print its listen
// addresses.
const readyTimeout = 20 * time.Second

// startDaemon execs bin with args, copies its log to logw, and returns once
// it has printed its serving address (and its metrics address when
// wantMetrics). The addresses come from the log, so children can listen on
// port 0 and never collide with another process's port.
func startDaemon(bin string, args []string, logw io.Writer, wantMetrics bool) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("sketchd stderr pipe: %w", err)
	}
	cmd.Stdout = logw
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	live.Lock()
	if err := cmd.Start(); err != nil {
		live.Unlock()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	live.set[d] = struct{}{}
	live.Unlock()

	type addrs struct{ serve, metrics string }
	ready := make(chan addrs, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		var a addrs
		sent := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logw, line)
			if v, ok := after(line, "serving on "); ok {
				a.serve = strings.Fields(v)[0]
			}
			if v, ok := after(line, "metrics on http://"); ok {
				a.metrics = strings.TrimSuffix(strings.Fields(v)[0], "/metrics")
			}
			if !sent && a.serve != "" && (a.metrics != "" || !wantMetrics) {
				ready <- a
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // the pipe must drain until exit
	}()
	go func() {
		<-scanDone // Wait closes the pipe; let the reader finish first
		d.waitErr = cmd.Wait()
		live.Lock()
		delete(live.set, d)
		live.Unlock()
		close(d.done)
	}()

	select {
	case a := <-ready:
		d.addr, d.metricsAddr = a.serve, a.metrics
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("sketchd exited before serving: %v", d.waitErr)
	case <-time.After(readyTimeout):
		d.kill()
		return nil, fmt.Errorf("sketchd printed no serving address within %v", readyTimeout)
	}
}

func after(line, marker string) (string, bool) {
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	return line[i+len(marker):], true
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop shuts the child down gracefully (SIGTERM: drain, final checkpoint)
// and reaps it; a child that outlives the grace period is killed. It
// reports a non-zero exit as an error.
func (d *daemon) stop(grace time.Duration) error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is reaped below
	select {
	case <-d.done:
	case <-time.After(grace):
		d.kill()
		return fmt.Errorf("sketchd did not exit within %v of SIGTERM; killed", grace)
	}
	if d.waitErr != nil {
		return fmt.Errorf("sketchd exit: %w", d.waitErr)
	}
	return nil
}

// kill SIGKILLs the child and waits until it is reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only when the child is already gone
	<-d.done
}

// killAll kills and reaps every live child.
func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// liveCount returns the number of children not yet reaped.
func liveCount() int {
	live.Lock()
	defer live.Unlock()
	return len(live.set)
}

// processCPU reads a running process's user plus system CPU time.
func processCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("reading process stat: %w", err)
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed process stat")
	}
	f := strings.Fields(s[i+1:])
	// After the command: state is field 3 of stat, utime and stime are
	// fields 14 and 15, in clock ticks of 1/100 s on Linux.
	if len(f) < 13 {
		return 0, errors.New("short process stat")
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing process stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// vmHWMBytes reads the peak resident set size of a running process.
func vmHWMBytes(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("reading process status: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM line in process status")
}
