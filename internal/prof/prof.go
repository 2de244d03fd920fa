// Package prof is the -cpuprofile / -memprofile flag pair of the CLIs:
// one call starts what was asked for, the returned function finishes it.
package prof

import (
	"errors"
	"os"
	"runtime/pprof"
)

// Start begins a CPU profile into the file cpu and returns the function
// that ends it and writes the allocation profile to the file mem; an empty
// path skips that profile. Call stop explicitly on the way out — os.Exit
// skips deferred calls.
func Start(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err == nil {
			err = pprof.StartCPUProfile(cpuFile)
		}
		if err != nil {
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mem == "" {
			return nil
		}
		f, err := os.Create(mem)
		if err == nil {
			err = errors.Join(pprof.Lookup("allocs").WriteTo(f, 0), f.Close())
		}
		return err
	}, nil
}
