package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running daemon the load is driven against.
type server interface {
	url() string
	// rssMiB is the daemon's resident set (VmRSS) now, 0 when unknown.
	rssMiB() float64
	// stop shuts the daemon down gracefully and waits until it has exited.
	stop() error
}

// launcher starts a fresh daemon over a store directory and returns it
// with the time from exec to its first healthy /v1/health.
type launcher func(ctx context.Context, storeDir string) (server, time.Duration, error)

// buildDaemon compiles cmd/secured into dir.
func buildDaemon(ctx context.Context, root, dir string) (string, error) {
	bin := dir + "/secured"
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/secured")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build cmd/secured: %w", err)
	}
	return bin, nil
}

// daemon is a cmd/secured child process on an ephemeral loopback port,
// every flag but -addr and -store at its default.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
}

func daemonLauncher(bin string) launcher {
	return func(ctx context.Context, storeDir string) (server, time.Duration, error) {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", storeDir)
		cmd.Stderr = os.Stderr
		// A daemon must not outlive a driver that dies without stopping it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, 0, fmt.Errorf("start daemon: %w", err)
		}
		d := &daemon{cmd: cmd, exited: make(chan error, 1)}
		br := bufio.NewReader(out)
		line, err := br.ReadString('\n')
		go func() {
			_, _ = io.Copy(io.Discard, br)
			d.exited <- cmd.Wait()
		}()
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), "secured: listening on ")
		if err != nil || !ok {
			d.kill()
			return nil, 0, fmt.Errorf("daemon did not report its address (%q): %v", line, err)
		}
		d.base = "http://" + addr
		if err := waitHealthy(ctx, d.base); err != nil {
			d.kill()
			return nil, 0, err
		}
		return d, time.Since(start), nil
	}
}

// probe is the client of the driver's own bookkeeping requests (health,
// stats); it keeps no connection open, so the load's connection count
// stays its own.
var probe = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}

func waitHealthy(ctx context.Context, base string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := probe.Get(base + "/v1/health")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("daemon at %s never became healthy: %v", base, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (d *daemon) url() string { return d.base }

func (d *daemon) rssMiB() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return d.kill()
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("daemon exit: %w", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		_ = d.kill()
		return fmt.Errorf("daemon did not drain within 60s")
	}
}

func (d *daemon) kill() error {
	_ = d.cmd.Process.Kill()
	return <-d.exited
}
