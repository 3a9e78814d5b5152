package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// server is one `dwqa serve` child process under test.
type server struct {
	*proc
	base   string    // http://127.0.0.1:port
	execAt time.Time // when the child was started
	bootS  float64   // exec → first 200 from /healthz
}

// health is the part of /healthz the harness reads.
type health struct {
	Passages    int `json:"passages"`
	FactRows    int `json:"fact_rows"`
	WALReplayed int `json:"wal_replayed"`
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the child binds it, so another process could take the
// port in between; a boot that fails for that reason fails the run
// loudly rather than measuring the wrong server.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer boots `dwqa serve` on dataDir with the benchmark's fixed
// flags and waits for /healthz. -seed 0 matches the zero core.Config
// the seeder fingerprints the directory with (README.md, Known gaps).
func (h *harness) startServer(dataDir string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	h.children++
	logPath := filepath.Join(h.outDir, fmt.Sprintf("serve-%d.log", h.children))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	cmd := exec.Command(filepath.Join(h.binDir, "dwqa"), "serve",
		"-seed", "0", "-addr", addr, "-data-dir", dataDir, "-no-feed", "-quiet")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	start := time.Now()
	p, err := h.start(cmd, nil)
	if err != nil {
		return nil, err
	}
	s := &server{proc: p, base: "http://" + addr, execAt: start}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.bootS = time.Since(start).Seconds()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			h.stop(s.proc)
			return nil, fmt.Errorf("dwqa serve exited during boot (%v); log tail:\n%s", cmd.ProcessState, tail(logPath, 20))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 2*time.Minute {
			h.stop(s.proc)
			return nil, fmt.Errorf("dwqa serve not healthy after 2 minutes; log tail:\n%s", tail(logPath, 20))
		}
	}
}

func tail(path string, lines int) string {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	all := strings.Split(strings.TrimRight(string(buf), "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return strings.Join(all, "\n")
}

func (s *server) health() (health, error) {
	var out health
	resp, err := http.Get(s.base + "/healthz")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("/healthz: HTTP %d", resp.StatusCode)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// scrape reads /metrics into a map keyed by the full series name,
// labels included (`dwqa_stage_duration_seconds_sum{stage="ir_search"}`).
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// cpuSeconds returns the child's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks are 1/100 s on Linux).
func (s *server) cpuSeconds() (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	rest := string(buf[strings.LastIndexByte(string(buf), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc stat: short line %q", buf)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc stat: %q", buf)
	}
	return (utime + stime) / 100, nil
}

// peakRSSMB returns the child's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("/proc status: no VmHWM")
}

// loadClient is one closed-loop client: one keep-alive connection.
type loadClient struct{ http *http.Client }

// newLoadClients returns n clients that each hold at most one
// connection, and the shared count of connections they have opened.
func newLoadClients(n int) ([]*loadClient, *atomic.Int64) {
	dials := new(atomic.Int64)
	out := make([]*loadClient, n)
	for i := range out {
		dialer := &net.Dialer{Timeout: 5 * time.Second}
		out[i] = &loadClient{http: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
					dials.Add(1)
					return dialer.DialContext(ctx, network, addr)
				},
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}}
	}
	return out, dials
}

func (c *loadClient) close() { c.http.CloseIdleConnections() }

// post sends one JSON body and returns the status and the whole reply.
func (c *loadClient) post(url string, body io.Reader) (int, []byte, error) {
	resp, err := c.http.Post(url, "application/json", body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	return resp.StatusCode, buf, err
}
