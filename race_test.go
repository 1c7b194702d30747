//go:build race

package ecvslrc

// raceDetector reports whether the tests run under the race detector, whose
// shadow memory is resident beside the program's own.
const raceDetector = true
