//go:build linux

package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// daemonProcAttr: should the harness be killed mid-run, the daemon must not
// outlive it.
func daemonProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// selfCPU is the harness's own utime+stime in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; it is 100 on
// every Linux ABI Go supports.
const clockTick = 100

func (d *daemon) procStat() (procStat, error) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	var ps procStat
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the line, so 12th and 13th after ")".
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc stat line %q", stat)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("bad cpu fields in /proc stat line %q", stat)
	}
	ps.cpuS = (ut + st) / clockTick
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return ps, fmt.Errorf("bad VmHWM line %q", line)
			}
			ps.hwmMB = kb / 1024
			return ps, nil
		}
	}
	return ps, errors.New("no VmHWM in /proc status")
}

// confineToOneCPU restricts the harness, and so every daemon it starts, to
// one CPU: the highest-numbered one it may run on, away from CPU 0's
// interrupts. It sets the calling thread's affinity and re-executes the
// program, so that every thread of the new image inherits it and both Go
// runtimes size themselves to one CPU. A process already confined (the
// re-executed one, or one started under taskset) returns at once.
func confineToOneCPU() error {
	var mask [16]uint64 // 1024 CPUs, the kernel's default cpu_set_t
	size := unsafe.Sizeof(mask)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %v", errno)
	}
	allowed, last := 0, -1
	for w, word := range mask {
		allowed += bits.OnesCount64(word)
		if word != 0 {
			last = 64*w + bits.Len64(word) - 1
		}
	}
	if allowed <= 1 {
		return nil
	}
	mask = [16]uint64{}
	mask[last/64] = 1 << (last % 64)
	runtime.LockOSThread()
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %v", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, os.Environ())
}
