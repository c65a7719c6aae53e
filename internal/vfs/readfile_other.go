//go:build !unix

package vfs

import "os"

// readFile is os.ReadFile where the unix system calls are not available.
func readFile(path string) ([]byte, error) { return os.ReadFile(path) }
