package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/streammapd from the checkout at root into dir.
func buildDaemon(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "streammapd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/streammapd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/streammapd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one streammapd subprocess on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	exited chan error // receives cmd.Wait's result once
}

// drainGrace is how long a daemon gets to exit after SIGTERM: its own
// -drain-timeout default (15s) plus slack.
const drainGrace = 20 * time.Second

// startDaemon starts bin with its cache in cacheDir and waits until it
// serves /healthz. work is a scratch directory for the port file.
func startDaemon(ctx context.Context, bin, work, cacheDir string, extra ...string) (*daemon, error) {
	portFile := filepath.Join(work, fmt.Sprintf("port-%d", time.Now().UnixNano()))
	args := append([]string{"-addr", "127.0.0.1:0", "-port-file", portFile, "-cache-dir", cacheDir, "-log-level", "warn"}, extra...)
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan error, 1)}
	d.cmd.Stderr = &d.stderr
	// The kernel kills the daemon if the benchmark dies without cleaning up.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.exited <- d.cmd.Wait() }()

	deadline := time.Now().Add(15 * time.Second)
	for {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			d.url = "http://" + strings.TrimSpace(string(b))
			if resp, err := http.Get(d.url + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		select {
		case err := <-d.exited:
			return nil, fmt.Errorf("streammapd exited during start-up: %v\n%s", err, d.stderr.String())
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("streammapd not healthy after 15s\n%s", d.stderr.String())
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM and requires a clean exit (code 0) within drainGrace;
// it returns how long the drain took.
func (d *daemon) stop() (time.Duration, error) {
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, fmt.Errorf("SIGTERM streammapd: %w", err)
	}
	select {
	case err := <-d.exited:
		d.exited <- err // a later kill() sees it already gone
		if err != nil {
			return 0, fmt.Errorf("streammapd did not exit 0 on SIGTERM: %w\n%s", err, d.stderr.String())
		}
		return time.Since(start), nil
	case <-time.After(drainGrace):
		d.kill()
		return 0, fmt.Errorf("streammapd still running %v after SIGTERM; killed\n%s", drainGrace, d.stderr.String())
	}
}

// kill ends the daemon now and waits for it; safe after stop.
func (d *daemon) kill() {
	select {
	case err := <-d.exited:
		d.exited <- err
		return
	default:
	}
	if err := d.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return
	}
	err := <-d.exited
	d.exited <- err
}
