// Package core is the compile service: Service, a concurrent front end to
// driver.Compile (the paper's profile -> partition -> pdg -> map -> plan
// flow) that deduplicates identical in-flight requests and caches their
// artifacts in an in-memory LRU, optionally backed by a content-addressed
// disk tier and a fleet-shared store.
package core

import "streammap/internal/driver"

// Compiled is driver.Compiled. The alias stays only because the frozen
// benchmark harness names core.Compiled; new code names driver.Compiled.
type Compiled = driver.Compiled
