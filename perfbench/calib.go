package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on shares its memory system with other
// tenants, and memory-bound work there slows down and recovers by up to
// 40% over minutes while register-only work keeps its speed. All four
// workloads are memory-bound, so their raw host times drift with the host
// (see README.md, Steadiness). Timing a fixed memory-streaming kernel next
// to every execution tracks that drift: reported times are scaled by
// calibRef / kernel time, i.e. expressed in seconds of a host on which the
// kernel takes calibRef.
const (
	// calibBytes is the kernel's buffer: 128 MiB, mapped outside the Go
	// heap so it never changes the garbage collector's pacing.
	calibBytes = 128 << 20
	// calibPasses is how many times one measurement reads the buffer.
	calibPasses = 4
	// calibRef is the kernel time the reported times are scaled to:
	// about its median on the 2-vCPU VM the benchmark was tuned on.
	calibRef = 80 * time.Millisecond
)

// calibrator owns the kernel's buffer. The buffer stays mapped and
// resident for the whole run, so it adds exactly calibBytes to the
// process's resident set.
type calibrator struct {
	mem   []byte
	words []uint64
	sink  uint64
}

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, calibBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("calibration buffer: %w", err)
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calibBytes/8)
	for i := range words {
		words[i] = uint64(i) // touch every page so the buffer is resident
	}
	return &calibrator{mem: mem, words: words}, nil
}

// measure times calibPasses sequential reads of the buffer.
func (c *calibrator) measure() time.Duration {
	start := time.Now()
	var s uint64
	for p := 0; p < calibPasses; p++ {
		for _, v := range c.words {
			s += v
		}
	}
	c.sink += s
	return time.Since(start)
}

// close unmaps the buffer.
func (c *calibrator) close() error {
	c.words = nil
	return syscall.Munmap(c.mem)
}

// scaled converts a host duration measured next to a kernel time k into
// reference-host seconds.
func scaled(d, k time.Duration) float64 {
	return d.Seconds() * calibRef.Seconds() / k.Seconds()
}
