package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"renonfs/internal/nfsnet"
	"renonfs/internal/nfsproto"
)

// proc is a child process in its own process group, so that stop reaches
// anything it spawned and nothing outlives the benchmark. It runs on the
// server's CPUs (affinity.go).
type proc struct {
	cmd *exec.Cmd
	pid int
}

// live holds the process groups to kill if the benchmark is interrupted.
var (
	liveMu sync.Mutex
	live   = map[int]bool{}
)

func startProc(cmd *exec.Cmd) (*proc, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	liveMu.Lock()
	defer liveMu.Unlock()
	if err := onServerCPUs(cmd.Start); err != nil {
		return nil, err
	}
	live[cmd.Process.Pid] = true
	return &proc{cmd: cmd, pid: cmd.Process.Pid}, nil
}

// stop ends the group: SIGINT, then SIGKILL after a grace period, and waits.
func (p *proc) stop() {
	syscall.Kill(-p.pid, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		syscall.Kill(-p.pid, syscall.SIGKILL)
		<-done
	}
	liveMu.Lock()
	delete(live, p.pid)
	liveMu.Unlock()
}

// killLive is the interrupt path: no grace, every group dies now.
func killLive() {
	liveMu.Lock()
	defer liveMu.Unlock()
	for pid := range live {
		syscall.Kill(-pid, syscall.SIGKILL)
	}
}

// freePort returns a loopback port that is free for both TCP and UDP.
func freePort() (int, error) {
	for try := 0; try < 20; try++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		port := l.Addr().(*net.TCPAddr).Port
		u, err := net.ListenPacket("udp", net.JoinHostPort("127.0.0.1", strconv.Itoa(port)))
		l.Close()
		if err == nil {
			u.Close()
			return port, nil
		}
	}
	return 0, errors.New("no port free on both tcp and udp")
}

// nfsd is a running cmd/nfsd child.
type nfsd struct {
	*proc
	addr     string // UDP and TCP service address
	statsURL string // "" unless started with the -stats listener
}

// spawnNfsd starts cmd/nfsd with its default pool sizes on fresh loopback
// ports and returns once it answers a NULL call.
func spawnNfsd(path string, stats bool) (*nfsd, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	n := &nfsd{addr: net.JoinHostPort("127.0.0.1", strconv.Itoa(port))}
	statsAddr := ""
	if stats {
		sport, err := freePort()
		if err != nil {
			return nil, err
		}
		statsAddr = net.JoinHostPort("127.0.0.1", strconv.Itoa(sport))
		n.statsURL = "http://" + statsAddr + "/stats"
	}
	if n.proc, err = startProc(exec.Command(path, "-udp", n.addr, "-tcp", n.addr, "-stats", statsAddr)); err != nil {
		return nil, err
	}
	probe, err := nfsnet.DialUDP(n.addr)
	if err != nil {
		n.stop()
		return nil, err
	}
	defer probe.Close()
	probe.Timeout, probe.Retries = 50*time.Millisecond, 0
	for deadline := time.Now().Add(5 * time.Second); ; {
		if _, err = probe.Call(nfsproto.ProcNull, nil); err == nil {
			return n, nil
		}
		if time.Now().After(deadline) {
			n.stop()
			return nil, fmt.Errorf("nfsd on %s never answered: %w", n.addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// --- /proc accounting -------------------------------------------------------

// userHZ is the unit of utime/stime in /proc/<pid>/stat; Linux fixes it at
// 100 for user space whatever the kernel's own tick.
const userHZ = 100

// procUsage is a child's accumulated cost as /proc reports it.
type procUsage struct {
	userUS, sysUS float64 // whole process, all threads
	hwmMB         float64 // peak resident set
	ctxsw         int64   // voluntary + involuntary, summed over threads
}

// parseStat extracts utime and stime (clock ticks) from /proc/<pid>/stat.
// The command name may hold spaces and parentheses; fields are counted from
// the last ')'.
func parseStat(b []byte) (utime, stime int64, err error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, 0, errors.New("stat: no command field")
	}
	f := bytes.Fields(b[i+1:])
	if len(f) < 13 {
		return 0, 0, errors.New("stat: too few fields")
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if utime, err = strconv.ParseInt(string(f[11]), 10, 64); err != nil {
		return 0, 0, err
	}
	stime, err = strconv.ParseInt(string(f[12]), 10, 64)
	return utime, stime, err
}

// statusField returns the first number on the "key:" line of a
// /proc/<pid>/status file, and false when the line is missing.
func statusField(b []byte, key string) (int64, bool) {
	for _, line := range bytes.Split(b, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte(key+":"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) == 0 {
			return 0, false
		}
		v, err := strconv.ParseInt(string(f[0]), 10, 64)
		return v, err == nil
	}
	return 0, false
}

// cpuUS is the process's on-CPU time in µs at nanosecond resolution: the
// first field of every thread's schedstat. (stat's utime+stime tick at 10 ms,
// too coarse for a 250 ms slice.)
func cpuUS(pid int) float64 {
	dir := filepath.Join("/proc", strconv.Itoa(pid), "task")
	tasks, _ := os.ReadDir(dir)
	var ns int64
	for _, t := range tasks {
		if b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat")); err == nil { // a thread may exit mid-scan
			if f := bytes.Fields(b); len(f) > 0 {
				v, _ := strconv.ParseInt(string(f[0]), 10, 64)
				ns += v
			}
		}
	}
	return float64(ns) / 1e3
}

func readUsage(pid int) (procUsage, error) {
	var u procUsage
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	b, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return u, err
	}
	ut, st, err := parseStat(b)
	if err != nil {
		return u, err
	}
	u.userUS, u.sysUS = float64(ut)*1e6/userHZ, float64(st)*1e6/userHZ
	if b, err = os.ReadFile(filepath.Join(dir, "status")); err != nil {
		return u, err
	}
	kb, ok := statusField(b, "VmHWM")
	if !ok {
		return u, errors.New("status: no VmHWM")
	}
	u.hwmMB = float64(kb) / 1024
	tasks, _ := filepath.Glob(filepath.Join(dir, "task", "*", "status"))
	for _, t := range tasks {
		if b, err := os.ReadFile(t); err == nil { // a thread may exit mid-scan
			v, _ := statusField(b, "voluntary_ctxt_switches")
			nv, _ := statusField(b, "nonvoluntary_ctxt_switches")
			u.ctxsw += v + nv
		}
	}
	return u, nil
}
