package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
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

// tier is a named topology size plus the broker budget the daemon boots
// with. table2 is the benchmark; smoke exists for the package's tests.
type tier struct {
	name  string
	scale float64
	k     int
}

var tiers = map[string]tier{
	"table2": {"table2", 1.0, 1064},
	"smoke":  {"smoke", 0.02, 21},
}

// topoSeed is the topology seed of every run: -seed moves only the
// request generator.
const topoSeed = 1

// buildBrokerd compiles cmd/brokerd into dir and returns the binary path.
func buildBrokerd(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(abs, "brokerd")
	cmd := exec.Command("go", "build", "-o", bin, "brokerset/cmd/brokerd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build brokerd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one brokerd subprocess.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	log     bytes.Buffer
	exited  chan error
	stopped bool
	// bootS is exec → first 200 on /healthz.
	bootS float64
}

// startDaemon boots a fresh brokerd and waits for /healthz. Economics,
// SLO, leases and background churn stay off (their flags' defaults).
func startDaemon(bin string, t tier, regions int) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{
		"-addr", addr, "-drain", "2s",
		"-scale", strconv.FormatFloat(t.scale, 'g', -1, 64),
		"-seed", strconv.Itoa(topoSeed), "-k", strconv.Itoa(t.k),
	}
	if regions > 0 {
		args = append(args, "-regions", strconv.Itoa(regions))
	}
	d := &daemon{cmd: exec.Command(bin, args...), base: "http://" + addr, exited: make(chan error, 1)}
	d.cmd.Stdout, d.cmd.Stderr = &d.log, &d.log
	d.cmd.SysProcAttr = daemonProcAttr()
	// One P per client connection, as on the issue's two cores: confined to
	// one CPU the runtime would take one, and a request arriving while the
	// other connection's is being computed would wait for the Go scheduler's
	// 10 ms time slice instead of being scheduled by the kernel at once.
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(numClients))
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.exited <- d.cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	for time.Since(start) < 60*time.Second {
		select {
		case err := <-d.exited:
			return nil, fmt.Errorf("brokerd exited during boot: %v\n%s", err, d.log.String())
		default:
		}
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.bootS = time.Since(start).Seconds()
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, errors.New("brokerd did not answer /healthz within 60s")
}

// stop terminates the daemon and returns once the process has ended.
func (d *daemon) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// procStat is what the harness reads about the daemon from /proc.
type procStat struct {
	cpuS  float64 // utime+stime
	hwmMB float64 // VmHWM
}

// scrape reads /metrics (Prometheus text) into name → value. Only
// unlabelled samples are kept; the harness needs counters and gauges.
func (d *daemon) scrape(hc *http.Client) (map[string]float64, error) {
	resp, err := hc.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: bad sample %q", line)
		}
		out[name] = v
	}
	return out, sc.Err()
}
