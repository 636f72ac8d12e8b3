// Package nilihype is a simulation-based reproduction of "Fast Hypervisor
// Recovery Without Reboot" (Zhou & Tamir, DSN 2018): component-level
// recovery of a Xen-like hypervisor by microreset (NiLiHype) compared with
// microreboot (ReHype).
//
// The public surface is the experiment tool (cmd/hyperrecover), the
// performance ledger (benchmark/) and the benchmark harness
// (bench_test.go); the library packages are under internal/ — see
// DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package nilihype
