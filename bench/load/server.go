package load

import (
	"context"
	"encoding/json"
	"errors"
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

	"ringrpq/internal/datagen"
	"ringrpq/internal/triples"
)

// Work is the benchmark's scratch directory: the rpqd binary, the
// generated triple files, WAL directories and rpqd's log. Everything in
// it can be deleted at any time.
type Work struct {
	Root string // repository root (the directory holding bench/)
	Dir  string // Root/bench/.work
}

// NewWork creates the scratch directory under root.
func NewWork(root string) (*Work, error) {
	w := &Work{Root: root, Dir: filepath.Join(root, "bench", ".work")}
	return w, os.MkdirAll(w.Dir, 0o755)
}

// BuildServer compiles cmd/rpqd of the repository being measured. It
// runs on every benchmark run: with nothing changed the go tool finds
// the binary up to date and returns at once, and with something changed
// a stale binary would measure the wrong commit.
func (w *Work) BuildServer(ctx context.Context) (string, error) {
	bin := filepath.Join(w.Dir, "rpqd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/rpqd")
	cmd.Dir = w.Root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/rpqd: %v\n%s", err, out)
	}
	return bin, nil
}

// Data returns the triple file of a graph, generating it on first use.
func (w *Work) Data(gs GraphSpec) (string, error) {
	path := filepath.Join(w.Dir, gs.Name+".nt")
	if _, err := os.Stat(path); err != nil {
		g := datagen.Generate(datagen.Config{Seed: DatasetSeed, Nodes: gs.Nodes, Edges: gs.Edges, Preds: gs.Preds})
		tmp := path + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return "", err
		}
		if err := triples.Dump(f, g); err != nil {
			f.Close()
			return "", err
		}
		if err := f.Close(); err != nil {
			return "", err
		}
		if err := os.Rename(tmp, path); err != nil {
			return "", err
		}
	}
	return path, nil
}

// LoadGraph reads a triple file back: the harness derives its op logs
// and its oracle from exactly the bytes rpqd is given.
func LoadGraph(path string) (*triples.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := triples.NewBuilder()
	if err := triples.Load(f, b); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// Server is one running rpqd child.
type Server struct {
	cmd   *exec.Cmd
	log   *os.File
	wait  chan struct{} // closed once the child has been reaped
	URL   string
	Flags []string
	// Setup is the time from exec to the first 200 of GET /readyz.
	Setup time.Duration
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// Start execs rpqd with flags plus an -addr of its own and waits until
// it is ready. The child dies with the harness (Pdeathsig), so no run
// can leave a server behind.
func (w *Work) Start(ctx context.Context, bin string, flags []string) (*Server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(w.Dir, "rpqd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append(append([]string(nil), flags...), "-addr", addr)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &Server{cmd: cmd, log: logf, URL: "http://" + addr, Flags: flags}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	exited := make(chan struct{})
	go func() { cmd.Wait(); close(exited) }()
	s.wait = exited
	for {
		resp, err := http.Get(s.URL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.Setup = time.Since(start)
				return s, nil
			}
		}
		select {
		case <-exited:
			logf.Close()
			return nil, fmt.Errorf("rpqd %v exited before it was ready (see %s)", flags, logf.Name())
		case <-ctx.Done():
			s.Kill()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Pid is the child's process id.
func (s *Server) Pid() int { return s.cmd.Process.Pid }

// Stop asks rpqd to shut down gracefully and waits for it; a child that
// ignores SIGTERM for ten seconds is killed.
func (s *Server) Stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.wait:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.wait
	}
	s.log.Close()
}

// Kill ends rpqd the way a crash would (SIGKILL) and waits for it.
func (s *Server) Kill() {
	s.cmd.Process.Kill()
	<-s.wait
	s.log.Close()
}

// clockTick is the kernel's USER_HZ, the unit of the CPU fields of
// /proc/<pid>/stat. It is 100 on every Linux port Go supports; reading
// it properly (sysconf) would need cgo.
const clockTick = 100

// CPU returns the user+system CPU time rpqd has used so far (0 for a
// Server that is not a child process, as in tests).
func (s *Server) CPU() (time.Duration, error) {
	if s.cmd == nil {
		return 0, nil
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.Pid()))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc/pid/stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc/pid/stat")
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// PeakRSS returns rpqd's resident-set high-water mark (VmHWM) in MiB.
func (s *Server) PeakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.Pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/pid/status")
}

// ServerStats is the part of GET /stats the benchmark reads.
type ServerStats struct {
	Index struct {
		Index struct {
			CompletedEdges int64
			IndexBytes     int64
		} `json:"index"`
		Updates struct {
			DataVersion    uint64
			Compactions    int64
			LastCompaction int64 // ns
			LastSwapPause  int64 // ns
		} `json:"updates"`
	} `json:"index"`
	Service struct {
		Hits, Misses         int64
		ExprHits, ExprMisses int64
		ResultEvictions      int64
		Deduped              int64
		WAL                  struct {
			Appended, AppendedBytes, Fsyncs, Checkpoints int64
		}
	} `json:"service"`
}

// FetchStats reads GET /stats from the server at base.
func FetchStats(base string) (ServerStats, error) {
	var st ServerStats
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
