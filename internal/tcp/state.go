package tcp

import "unsafe"

// Struct footprints for the StateBytes accounting. unsafe.Sizeof is a
// compile-time constant, so this costs nothing at runtime.
const (
	senderStructBytes = unsafe.Sizeof(Sender{})
	segmentBytes      = unsafe.Sizeof(segment(0))
	sinkStructBytes   = unsafe.Sizeof(Sink{})
)
