// Package dice is a Go reproduction of "Toward Online Testing of
// Federated and Heterogeneous Distributed Systems" (Canini et al., USENIX
// 2011): DiCE, online testing of deployed distributed systems by concolic
// exploration from live checkpoints, with the paper's BGP/BIRD case study
// rebuilt on a pure-Go substrate.
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory) with binaries under cmd/ and runnable walkthroughs under
// examples/. The root package only anchors the module; cmd/experiments
// prints the paper's evaluation beside the measured numbers, and
// benchmark/ is the tracked performance harness.
package dice
