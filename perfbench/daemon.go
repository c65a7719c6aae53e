package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running contigd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	logs bytes.Buffer
	done chan error
}

// freeAddr reserves an ephemeral localhost port for the daemon.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon execs contigd and waits until /healthz reports ok. The
// returned duration is the set-up time: exec until healthy.
func startDaemon(bin, stateDir string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", addr, "-shard-workers", "2"}
	if stateDir != "" {
		args = append(args, "-state-dir", stateDir)
	}
	d := &daemon{base: "http://" + addr, done: make(chan error, 1)}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = &d.logs
	d.cmd.Stderr = &d.logs
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start contigd: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()

	probe := &http.Client{Timeout: time.Second}
	deadline := t0.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.done:
			d.done <- err
			return nil, 0, fmt.Errorf("contigd exited during start-up (%v): %s", err, d.logs.String())
		default:
		}
		if body, err := get(probe, d.base+"/healthz", "healthz"); err == nil && strings.Contains(string(body), `"ok"`) {
			return d, time.Since(t0), nil
		}
		// A fine poll: start-up takes a few milliseconds, and a coarse
		// sleep would quantise setup_s.
		time.Sleep(100 * time.Microsecond)
	}
	_ = d.stop(true)
	return nil, 0, fmt.Errorf("contigd not healthy after 30s")
}

// peakRSSMiB reads the daemon's VmHWM (peak resident set).
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes longer than 20 s. It reports a non-zero exit.
// contigd installs its SIGTERM handler just after its listener is up, so
// a daemon stopped straight after start-up (justStarted) may die of the
// signal instead of draining; that is not counted as a failed drain.
func (d *daemon) stop(justStarted bool) error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		d.done <- err
		var exit *exec.ExitError
		if justStarted && errors.As(err, &exit) {
			if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		if err != nil {
			return fmt.Errorf("contigd drain: %v: %s", err, d.logs.String())
		}
		return nil
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		err := <-d.done
		d.done <- err
		return fmt.Errorf("contigd did not drain within 20s")
	}
}
