//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package mpic

import (
	"os"
	"time"
)

// lockStaleAfter bounds how long the fallback lock protocol trusts an
// existing lock file. Without flock(2) there is no kernel-held lock to
// drop when a holder dies, so a lock file older than this is presumed
// orphaned and broken.
const lockStaleAfter = 10 * time.Second

// flockPath is the portable fallback for platforms without flock(2): an
// O_EXCL create-spin on the lock file, refreshed by mtime, with stale
// locks (a holder that crashed before unlocking) broken after
// lockStaleAfter. Weaker than the flock build — a break races with a
// merely slow holder — but every record of the journals it guards is
// checksummed, so a lost race costs a cut-off record (a cell that runs
// again, bit-identically) or a loud error, never a silently wrong one.
func flockPath(path string) (func() error, error) {
	for {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			f.Close()
			return func() error { return os.Remove(path) }, nil
		}
		if !os.IsExist(err) {
			return nil, err
		}
		if st, serr := os.Stat(path); serr == nil && time.Since(st.ModTime()) > lockStaleAfter {
			os.Remove(path) // presumed orphaned; next loop recreates it
			continue
		}
		time.Sleep(5 * time.Millisecond)
	}
}
