package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one cmd/3dess process on loopback.
type serverProc struct {
	name string
	url  string
	args []string
	cmd  *exec.Cmd
	log  *os.File
	done chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches bin with args plus a fresh loopback -addr. Its log
// goes to logDir/name.log. The child dies with the benchmark (Pdeathsig),
// so a killed benchmark leaves no server behind.
func startServer(bin, name, logDir string, args ...string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("finding a port for %s: %w", name, err)
	}
	lf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &serverProc{name: name, url: fmt.Sprintf("http://127.0.0.1:%d", port), args: args, cmd: cmd, log: lf, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	return p, nil
}

// waitReady polls GET /readyz until it answers 200, the process exits, or
// ctx ends.
func (p *serverProc) waitReady(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/readyz", nil)
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-p.done:
			p.done <- err
			return fmt.Errorf("%s exited before ready: %v (see %s)", p.name, err, p.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", p.name, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// memMB reads a memory field of the process's /proc status ("VmRSS" for
// the current resident set, "VmHWM" for its peak) in MiB.
func (p *serverProc) memMB(field string) (float64, error) {
	mb, err := statusMB(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid), field)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", p.name, err)
	}
	return mb, nil
}

// statusMB reads a kB field from a /proc status file, in MiB.
func statusMB(status, field string) (float64, error) {
	f, err := os.Open(status)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in %s", field, status)
}

// stop sends SIGTERM (the server drains and closes its journal), kills the
// process if it has not exited within 20 s, and waits for it.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// fleet is the set of server processes one workload runs.
type fleet struct {
	procs []*serverProc
	front *serverProc // the process clients talk to
}

func (f *fleet) stop() {
	// Coordinator (front, started last) first, then shards.
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
}

// memMB sums a /proc status memory field over the fleet.
func (f *fleet) memMB(field string) (float64, error) {
	var sum float64
	for _, p := range f.procs {
		mb, err := p.memMB(field)
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// sampleRSS samples the fleet's summed resident memory every 100 ms until
// stop is closed, then sends the mean on the returned channel. A mean over
// the window is far steadier than the peak, which one GC cycle sets.
func (f *fleet) sampleRSS(stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		var sum float64
		var n int
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			if mb, err := f.memMB("VmRSS"); err == nil {
				sum += mb
				n++
			}
			select {
			case <-stop:
				out <- sum / float64(max(n, 1))
				return
			case <-t.C:
			}
		}
	}()
	return out
}

// flags renders each process's server flags (minus the port) for the
// provenance record.
func (f *fleet) flags() map[string]string {
	out := make(map[string]string, len(f.procs))
	for _, p := range f.procs {
		out[p.name] = strings.Join(p.args, " ")
	}
	return out
}
