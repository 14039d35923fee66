package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuGroups are the packages and runtime slices the folded CPU profile
// reports, each as a self-time share of all samples.
var cpuGroups = []string{"sim", "router", "power", "stats", "traffic", "core", "serve", "remote",
	"runtime_gc", "runtime_sched", "net", "encoding_json"}

// Runtime functions are split by what they do: memory management
// (allocation and collection) versus scheduling, parking and locking.
// Other runtime functions (memmove, map access, hashing) are helpers
// charged to no group.
var (
	runtimeGCPrefixes = []string{"gc", "mallocgc", "scanobject", "scanblock", "scanstack", "greyobject",
		"markroot", "findObject", "sweepone", "bgsweep", "bgscavenge", "heapBits", "wbBuf", "bulkBarrier",
		"(*mspan)", "(*mheap)", "(*mcache)", "(*mcentral)", "(*gcWork)", "(*gcControllerState)",
		"(*sweepLocked)", "(*pageAlloc)", "(*scavenger", "newobject", "makeslice", "growslice",
		"memclrNoHeapPointers", "nextFreeFast", "publicationBarrier", "typePointers", "(*unwinder)"}
	runtimeSchedPrefixes = []string{"schedule", "findRunnable", "park_m", "gopark", "goready", "ready",
		"runqgrab", "runqsteal", "stealWork", "futex", "notesleep", "notewakeup", "semasleep", "semawakeup",
		"lock", "unlock", "procyield", "osyield", "usleep", "mcall", "systemstack", "wakep", "startm",
		"stopm", "handoffp", "resetspinning", "checkTimers", "netpoll", "execute", "goexit", "mPark",
		"semacquire", "semrelease", "selectgo", "chansend", "chanrecv", "(*timers)", "runtimer",
		"entersyscall", "exitsyscall", "casgstatus", "nanotime", "(*gQueue)", "(*randomEnum)"}
)

// cpuGroup maps a profiled function name to its group, or "".
func cpuGroup(fn string) string {
	pkg, rest := splitFunc(fn)
	switch pkg {
	case "orion/internal/sim":
		return "sim"
	case "orion/internal/router", "orion/internal/flit":
		return "router"
	case "orion/internal/power":
		return "power"
	case "orion/internal/stats":
		return "stats"
	case "orion/internal/traffic":
		return "traffic"
	case "orion/internal/core":
		return "core"
	case "orion/internal/serve":
		return "serve"
	case "orion/internal/remote":
		return "remote"
	case "encoding/json":
		return "encoding_json"
	case "net", "internal/poll", "net/textproto", "net/http", "net/url", "bufio",
		"syscall", "internal/runtime/syscall":
		// Raw system calls are socket I/O on the serving path (and the
		// result cache's file writes).
		return "net"
	case "runtime":
		for _, p := range runtimeGCPrefixes {
			if strings.HasPrefix(rest, p) {
				return "runtime_gc"
			}
		}
		for _, p := range runtimeSchedPrefixes {
			if strings.HasPrefix(rest, p) {
				return "runtime_sched"
			}
		}
	}
	if strings.HasPrefix(pkg, "net/http/") {
		return "net"
	}
	return ""
}

// splitFunc splits a symbol such as "orion/internal/sim.(*Bus).Publish"
// into its package path and the rest.
func splitFunc(fn string) (pkg, rest string) {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+1+dot+1:]
}

// foldTop folds the text of `go tool pprof -top` into self-time shares per
// group. Every group is present in the result, at 0 when no sample fell in
// it.
func foldTop(text string) (map[string]float64, error) {
	out := make(map[string]float64, len(cpuGroups))
	for _, g := range cpuGroups {
		out[g] = 0
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	inTable := false
	rows := 0
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing pprof row %q: %w", sc.Text(), err)
		}
		rows++
		// The symbol is everything after the five numeric columns; it
		// may itself contain spaces (e.g. " (inline)").
		if g := cpuGroup(f[5]); g != "" {
			out[g] += pct / 100
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inTable || rows == 0 {
		return nil, fmt.Errorf("pprof output holds no profile table")
	}
	return out, nil
}

// foldProfile runs the installed `go tool pprof` on a CPU profile and folds
// its flat (self) time by group.
func foldProfile(goBin, profile string) (map[string]float64, error) {
	cmd := exec.Command(goBin, "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(string(text))
}
