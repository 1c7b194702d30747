// Package models registers the platform-model library with
// internal/platform. Importing this package — usually as a blank import —
// makes every model resolvable by name via platform.Lookup, platform.Resolve
// and the sweep "platform=" axis.
//
// Each model lives in its own sub-package with a sibling CHANGELOG.md
// (append-only; enforced by a test and a CI grep). Registration order is
// fixed and historical: paper platform first, then newer machines.
package models

import (
	"ecvslrc/internal/platform"
	"ecvslrc/internal/platform/models/cluster_gbe"
	"ecvslrc/internal/platform/models/decstation_atm"
	"ecvslrc/internal/platform/models/grace"
	"ecvslrc/internal/platform/models/rdma_100g"
)

func init() {
	platform.Register(decstation_atm.Model())
	platform.Register(cluster_gbe.Model())
	platform.Register(rdma_100g.Model())
	platform.Register(grace.Model())
}
