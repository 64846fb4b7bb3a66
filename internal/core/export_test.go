package core

import "repro/internal/pmw"

// PMW exposes the single PMW-Bypass in non-partitioned mode (nil
// otherwise), for tests that read its histogram and counters.
func (s *Session) PMW() *pmw.PMW { return s.single }
