//go:build !linux && !darwin

package store

import (
	"errors"
	"os"
)

var errNoMmap = errors.New("store: memory mapping not supported on this platform")

// mmapFile is the portable stub: MapFile fails, and its callers open the
// file for positioned reads instead.
func mmapFile(*os.File, int64) ([]byte, func() error, error) {
	return nil, nil, errNoMmap
}
