package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"dwqa/internal/seed"
)

// harness owns everything one invocation creates: the built binaries,
// the seeded corpus cache, child processes and temporary directories.
type harness struct {
	root     string // checkout under test (holds go.mod, cmd/, internal/)
	buildDir string // binaries, corpus cache, temp dirs: <root>/.bench_build
	binDir   string
	outDir   string // logs, trace.json, results.json
	tmpDir   string // removed on exit
	passages int    // corpus size: corpusPassages, smaller in the smoke test
	setUps   int    // set-ups per untraced run: defaultSetUps, fewer in the smoke test
	spec     *spec
	probe    *probe // the reference clock (probe.go)
	children int    // child processes started, for log names

	mu         sync.Mutex
	procs      map[*proc]bool
	closeProbe sync.Once
}

// corpusPassages is the corpus tier BENCHMARK.json is defined at.
const corpusPassages = 100_000

// defaultSetUps is how many times an untraced run sets up (serving:
// copy the seeded directory, boot, warm up; ingest: boot on what it
// wrote) before measuring. setup_s and boot_s report the median, so one
// slow spell of the host does not set them.
const defaultSetUps = 5

// proc is a started child process and the channel closed once it has
// been waited for.
type proc struct {
	cmd    *exec.Cmd
	exited chan struct{}
}

func newHarness(root, buildDir, outDir string) (*harness, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	for _, need := range []string{"go.mod", "cmd/seeder", "cmd/dwqa", "BENCHMARK.json"} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return nil, fmt.Errorf("%s is not a dwqa checkout: %w", root, err)
		}
	}
	if !filepath.IsAbs(buildDir) {
		buildDir = filepath.Join(root, buildDir)
	}
	if outDir == "" {
		outDir = filepath.Join(buildDir, "out")
	}
	h := &harness{
		root: root, buildDir: buildDir, binDir: filepath.Join(buildDir, "bin"),
		outDir: outDir, passages: corpusPassages, setUps: defaultSetUps, procs: map[*proc]bool{},
	}
	if h.spec, err = loadSpec(filepath.Join(root, "BENCHMARK.json")); err != nil {
		return nil, err
	}
	for _, dir := range []string{h.binDir, h.outDir, filepath.Join(buildDir, "tmp")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	if h.tmpDir, err = os.MkdirTemp(filepath.Join(buildDir, "tmp"), "run-"); err != nil {
		return nil, err
	}
	if h.probe, err = startProbe(); err != nil {
		return nil, err
	}
	return h, nil
}

// start runs cmd as a tracked child. drain, when not nil, reads the
// child's output pipes to their end; it runs before Wait, which closes
// the pipes and would lose what is still unread in them.
func (h *harness) start(cmd *exec.Cmd, drain func()) (*proc, error) {
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, exited: make(chan struct{})}
	h.mu.Lock()
	h.procs[p] = true
	h.mu.Unlock()
	go func() {
		if drain != nil {
			drain()
		}
		_ = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// stop kills a child (SIGKILL: the harness never needs the graceful
// shutdown, which would publish a final snapshot, and the durability
// check needs the crash) and waits until it has ended.
func (h *harness) stop(p *proc) {
	_ = p.cmd.Process.Kill()
	<-p.exited
	h.mu.Lock()
	delete(h.procs, p)
	h.mu.Unlock()
}

// cleanup stops every child still running and removes the temporary
// directories. It runs on success, failure and SIGINT.
func (h *harness) cleanup() {
	h.mu.Lock()
	procs := make([]*proc, 0, len(h.procs))
	for p := range h.procs {
		procs = append(procs, p)
	}
	h.mu.Unlock()
	for _, p := range procs {
		h.stop(p)
	}
	h.closeProbe.Do(h.probe.close)
	_ = os.RemoveAll(h.tmpDir)
}

// writeReport stores v as JSON in the output directory.
func (h *harness) writeReport(name string, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(h.outDir, name), buf, 0o644)
}

// buildBinaries compiles cmd/seeder and cmd/dwqa from the tree under
// test. Build time is excluded from every metric.
func (h *harness) buildBinaries() error {
	cmd := exec.Command("go", "build", "-o", h.binDir+string(filepath.Separator), "./cmd/seeder", "./cmd/dwqa")
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/seeder and cmd/dwqa: %w\n%s", err, out)
	}
	return nil
}

// seedRun is one finished seeder process.
type seedRun struct {
	Summary seed.Summary
	Start   time.Time // exec
	WallS   float64
	UserS   float64
	SysS    float64
	PeakMB  float64
	BatchAt []time.Duration // commit time of each batch, since exec
	LogPath string
}

// runSeeder ingests the fixed corpus (`-seed 42`, default batch and
// snapshot flags) into dir. -progress-every 1 makes the seeder print
// one line per committed batch, which is how batch commit times are
// seen from outside the process.
func (h *harness) runSeeder(dir string, passages int) (*seedRun, error) {
	h.children++
	run := &seedRun{LogPath: filepath.Join(h.outDir, fmt.Sprintf("seeder-%d.log", h.children))}
	logFile, err := os.Create(run.LogPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	cmd := exec.Command(filepath.Join(h.binDir, "seeder"),
		"-data", dir, "-passages", fmt.Sprint(passages), "-seed", fmt.Sprint(corpusSeed), "-progress-every", "1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	run.Start = start
	var summaryErr error
	p, err := h.start(cmd, func() {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			scanLines(stdout, logFile, func(line string) {
				if rest, ok := strings.CutPrefix(line, "seeder-summary "); ok {
					summaryErr = json.Unmarshal([]byte(rest), &run.Summary)
				}
			})
		}()
		go func() {
			defer wg.Done()
			scanLines(stderr, logFile, func(line string) {
				if strings.HasPrefix(line, "page ") {
					run.BatchAt = append(run.BatchAt, time.Since(start))
				}
			})
		}()
		wg.Wait()
	})
	if err != nil {
		return nil, err
	}
	<-p.exited
	run.WallS = time.Since(start).Seconds()
	h.stop(p)
	if !cmd.ProcessState.Success() {
		return nil, fmt.Errorf("seeder: %v; log tail:\n%s", cmd.ProcessState, tail(run.LogPath, 20))
	}
	if summaryErr != nil || run.Summary.Passages == 0 {
		return nil, fmt.Errorf("seeder printed no summary (%v); log tail:\n%s", summaryErr, tail(run.LogPath, 20))
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	run.UserS = time.Duration(ru.Utime.Nano()).Seconds()
	run.SysS = time.Duration(ru.Stime.Nano()).Seconds()
	run.PeakMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return run, nil
}

// corpus is a seeded data directory and what the seeder reported
// about it.
type corpus struct {
	Dir     string
	Summary seed.Summary
}

// corpusCache returns the seeded data directory the serving workloads
// copy, seeding it on first use. The cache is stamped with the seeder
// binary's hash, so a changed tree reseeds. Seeding here is not timed:
// the `ingest` workload is where the seeder is measured.
func (h *harness) corpusCache() (*corpus, error) {
	dir := filepath.Join(h.buildDir, fmt.Sprintf("corpus-%d", h.passages))
	key, err := fileHash(filepath.Join(h.binDir, "seeder"))
	if err != nil {
		return nil, err
	}
	c := &corpus{Dir: filepath.Join(dir, "data")}
	var stamp struct {
		Seeder  string
		Summary seed.Summary
	}
	stampPath := filepath.Join(dir, "stamp.json")
	if buf, err := os.ReadFile(stampPath); err == nil && json.Unmarshal(buf, &stamp) == nil && stamp.Seeder == key {
		c.Summary = stamp.Summary
		return c, nil
	}
	fmt.Fprintf(os.Stderr, "bench: seeding the %d-passage corpus into %s (once per checkout, not timed)\n", h.passages, dir)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	run, err := h.runSeeder(c.Dir, h.passages)
	if err != nil {
		return nil, err
	}
	c.Summary = run.Summary
	stamp.Seeder, stamp.Summary = key, run.Summary
	buf, err := json.Marshal(stamp)
	if err != nil {
		return nil, err
	}
	// The stamp lands last: a cache without it is reseeded.
	return c, os.WriteFile(stampPath, buf, 0o644)
}

// scanLines copies r to log line by line, handing each line to fn.
func scanLines(r io.Reader, log io.Writer, fn func(line string)) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		fn(sc.Text())
		fmt.Fprintln(log, sc.Text())
	}
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sum := sha256.New()
	if _, err := io.Copy(sum, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(sum.Sum(nil)), nil
}

// copyDir copies a flat data directory (the store keeps no
// subdirectories) and returns the bytes copied.
func copyDir(src, dst string) (int64, error) {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if !e.Type().IsRegular() {
			return total, fmt.Errorf("copying %s: %s is not a regular file", src, e.Name())
		}
		n, err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()))
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func copyFile(src, dst string) (int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(out, in)
	if err != nil {
		out.Close()
		return n, err
	}
	return n, out.Close()
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
