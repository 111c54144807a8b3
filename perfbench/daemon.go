package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every Linux architecture Go supports).
const clockTicks = 100

// daemon is one running boundedgd process.
type daemon struct {
	cmd  *exec.Cmd
	url  string // http://127.0.0.1:<port>
	done chan struct{}

	mu  sync.Mutex
	log bytes.Buffer // the daemon's stderr
}

var servingRE = regexp.MustCompile(` on (127\.0\.0\.1:\d+), `)

// startDaemon execs bin with args and returns once GET /healthz answers
// 200, with the time from exec to that first 200: the daemon's set-up
// time (graph decode, index build, WAL initialization).
func startDaemon(ctx context.Context, bin string, args []string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	// The daemon runs with this process's GOMAXPROCS, stated explicitly
	// so the report's stamp is true of both processes.
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start daemon: %w", err)
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line + "\n")
			d.mu.Unlock()
			if m := servingRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(d.done)
	}()
	fail := func(err error) (*daemon, time.Duration, error) {
		d.kill()
		return nil, 0, fmt.Errorf("%w\ndaemon log:\n%s", err, d.logText())
	}
	select {
	case a := <-addr:
		d.url = "http://" + a
	case <-d.done:
		return fail(errors.New("daemon exited before serving"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case <-d.done:
			return fail(errors.New("daemon exited before /healthz answered"))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// stop asks the daemon to drain and exit (SIGTERM), escalating to SIGKILL
// after grace, and waits until it has exited.
func (d *daemon) stop(grace time.Duration) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(grace):
		d.kill()
	}
}

// kill ends the daemon at once and waits until it has exited.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procRSS returns a process's resident set (VmRSS) and its peak
// (VmHWM), in MiB.
func procRSS(pid int) (rss, hwm float64, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	field := func(name string) (float64, error) {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, name+":"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				return kb / 1024, err
			}
		}
		return 0, fmt.Errorf("no %s in /proc/%d/status", name, pid)
	}
	rss, err1 := field("VmRSS")
	hwm, err2 := field("VmHWM")
	return rss, hwm, errors.Join(err1, err2)
}

// hostCPU reads the aggregate line of /proc/stat: total and steal
// jiffies, for the steal share over a window.
func hostCPU() (total, steal uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, s := range f[1:min(len(f), 9)] {
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// fsType names the filesystem holding path, from /proc/mounts.
func fsType(path string) string {
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if (path == mnt || strings.HasPrefix(path, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > best {
			best, typ = len(mnt), f[2]
		}
	}
	return typ
}
