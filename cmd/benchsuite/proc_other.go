//go:build !linux

package main

import (
	"errors"
	"syscall"
)

// The daemon's CPU time and peak RSS are read from /proc, so a run needs
// Linux; -compare, -contract and the package's pure tests work anywhere.

func daemonProcAttr() *syscall.SysProcAttr { return nil }

func selfCPU() float64 { return 0 }

func confineToOneCPU() error { return nil }

func (d *daemon) procStat() (procStat, error) {
	return procStat{}, errors.New("benchsuite reads brokerd's CPU time and RSS from /proc: run it on Linux")
}
