package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"runtime/debug"
	"strconv"
	"time"
)

// Failure causes attached to an operation's context, so the operation's
// error can be told apart from its own errors.
var (
	errMemory   = errors.New("rss ceiling crossed")
	errDeadline = errors.New("operation deadline")
)

// resetPeak returns freed memory to the OS and resets the process's RSS
// high-water mark (VmHWM) to its current RSS, so the next peakRSS reading
// covers only what runs after it. Without the reset, one 3 GB query would
// hide every later query's peak.
func resetPeak() {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux ≥ 4.0). Where it is not
	// supported the peaks read high, never low.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the process's RSS high-water mark in bytes.
func peakRSS() int64 { return procStatusKB("VmHWM:") << 10 }

// currentRSS returns the process's resident set size in bytes.
func currentRSS() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(string(f[1]), 10, 64)
	return pages * int64(os.Getpagesize())
}

func procStatusKB(field string) int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	i := bytes.Index(b, []byte(field))
	if i < 0 {
		return 0
	}
	f := bytes.Fields(b[i+len(field):])
	if len(f) == 0 {
		return 0
	}
	kb, _ := strconv.ParseInt(string(f[0]), 10, 64)
	return kb
}

// guard is the heap-ceiling watchdog of one operation or phase: it polls
// the process RSS and cancels the context it was given with errMemory once
// the RSS crosses rssCeiling.
type guard struct {
	stopc   chan struct{}
	done    chan struct{}
	tripped bool
}

// startGuard derives the operation context from parent: it carries the
// opDeadline and is canceled with errMemory if the RSS ceiling is crossed.
// Call the returned stop function exactly once when the operation ends; it
// returns why the operation failed if it did ("memory" or "deadline"), or ""
// when neither the watchdog nor the deadline fired.
func startGuard(parent context.Context, deadline time.Duration) (context.Context, func() string) {
	ctx, cancel := context.WithCancelCause(parent)
	ctx, cancelTimeout := context.WithTimeoutCause(ctx, deadline, errDeadline)
	g := &guard{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stopc:
				return
			case <-t.C:
				if currentRSS() > rssCeiling {
					g.tripped = true
					cancel(errMemory)
					return
				}
			}
		}
	}()
	return ctx, func() string {
		close(g.stopc)
		<-g.done
		cause := context.Cause(ctx)
		cancelTimeout()
		cancel(nil)
		switch {
		case g.tripped || errors.Is(cause, errMemory):
			return "memory"
		case errors.Is(cause, errDeadline):
			return "deadline"
		}
		return ""
	}
}
