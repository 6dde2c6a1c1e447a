//go:build !linux

package main

// kernelRelease is unknown off Linux.
func kernelRelease() string { return "unknown" }
