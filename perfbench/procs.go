package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// clockTick is USER_HZ, the unit of /proc CPU counters (100 on every Linux
// architecture Go supports).
const clockTick = 10 * time.Millisecond

// procStat is one process's CPU time and parent, from /proc/<pid>/stat.
type procStat struct {
	ppid int
	cpu  time.Duration // utime + stime, all threads
}

func readProcStat(pid int) (procStat, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return procStat{}, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state): ppid is field 4, utime 14, stime 15.
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ppid, err1 := strconv.Atoi(f[1])
	ut, err2 := strconv.ParseInt(f[11], 10, 64)
	st, err3 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return procStat{}, fmt.Errorf("/proc/%d/stat: bad fields", pid)
	}
	return procStat{ppid: ppid, cpu: time.Duration(ut+st) * clockTick}, nil
}

// processTree returns root and every live descendant of it.
func processTree(root int) []int {
	children := map[int][]int{}
	dirs, _ := filepath.Glob("/proc/[0-9]*")
	for _, d := range dirs {
		pid, err := strconv.Atoi(filepath.Base(d))
		if err != nil {
			continue
		}
		st, err := readProcStat(pid)
		if err != nil {
			continue // exited while scanning
		}
		children[st.ppid] = append(children[st.ppid], pid)
	}
	tree := []int{root}
	for i := 0; i < len(tree); i++ {
		tree = append(tree, children[tree[i]]...)
	}
	return tree
}

// treeSample is a snapshot of a live process tree.
type treeSample struct {
	cpu   time.Duration
	hwmMB float64 // peak resident memory, summed over the processes
}

// sampleTree reads the CPU time and peak RSS of pids.
func sampleTree(pids []int) (treeSample, error) {
	var s treeSample
	for _, pid := range pids {
		st, err := readProcStat(pid)
		if err != nil {
			return s, err
		}
		s.cpu += st.cpu
		kb, err := statusField(pid, "VmHWM:")
		if err != nil {
			return s, err
		}
		s.hwmMB += float64(kb) / 1024
	}
	return s, nil
}

// statusField returns the first number of a /proc/<pid>/status line.
func statusField(pid int, name string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name) {
			fields := strings.Fields(line[len(name):])
			if len(fields) == 0 {
				break
			}
			return strconv.ParseInt(fields[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s line", pid, name)
}

// cpuTimes is the machine's cumulative CPU time, summed over its CPUs.
type cpuTimes struct {
	// used is the time the CPUs ran anything: user, nice, system, irq and
	// softirq.
	used time.Duration
	// steal is the time the hypervisor gave to other guests while this one
	// had work.
	steal time.Duration
}

func (a cpuTimes) sub(b cpuTimes) cpuTimes {
	return cpuTimes{used: a.used - b.used, steal: a.steal - b.steal}
}

// hostCPU reads the machine's cumulative CPU times from /proc/stat, or
// zeros where it cannot.
func hostCPU() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var v [8]int64 // user nice system idle iowait irq softirq steal
	for i := range v {
		v[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	return cpuTimes{
		used:  time.Duration(v[0]+v[1]+v[2]+v[5]+v[6]) * clockTick,
		steal: time.Duration(v[7]) * clockTick,
	}
}

// hostSteal returns the machine's cumulative steal time.
func hostSteal() time.Duration { return hostCPU().steal }
