// Package pastry implements the Pastry-style structured overlay TAP runs
// on: prefix routing over a 160-bit circular identifier space with leaf
// sets, per-digit routing tables, join, departure, and failure repair.
//
// This is the stand-in for FreePastry 1.3, which the paper used as its
// routing and location substrate. The guarantees TAP relies on are
// reproduced faithfully:
//
//   - Route(key) reaches the live node whose nodeId is numerically closest
//     to key in O(log_{2^b} N) hops (b = 4 by default, as in the paper).
//   - Delivery remains correct across joins, leaves, and failures: leaf
//     sets are maintained eagerly (as FreePastry's leaf-set protocol does),
//     while routing-table entries are repaired lazily when a dead entry is
//     hit, exactly Pastry's repair strategy.
//
// All nodes live in one process and their state is plain memory; routing
// decisions use only node-local state (leaf set + routing table), so hop
// counts and failure behaviour match a distributed deployment. A global
// sorted index of live nodes doubles as the oracle for correctness checks
// and as the information source for repair (which, in a real deployment,
// would arrive via Pastry's maintenance traffic).
package pastry

import (
	"fmt"

	"tap/internal/id"
	"tap/internal/simnet"
)

// Config carries the overlay parameters. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// B is the routing base exponent: digits are b bits, tables have 2^b
	// columns, and routing takes ~log_{2^b} N hops. The paper's "typical
	// value" is 4.
	B int
	// LeafSize is the total leaf set size L; L/2 numerically smaller and
	// L/2 larger neighbors are tracked. Pastry's typical value is 16.
	LeafSize int
	// MaxRouteHops bounds a single route; exceeding it means the overlay
	// state is corrupt. Defaults to 64.
	MaxRouteHops int
}

// DefaultConfig returns the paper's parameters: b=4, L=16.
func DefaultConfig() Config {
	return Config{B: 4, LeafSize: 16, MaxRouteHops: 64}
}

func (c Config) validate() error {
	switch c.B {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("pastry: config B=%d not in {1,2,4,8}", c.B)
	}
	if c.LeafSize < 2 || c.LeafSize%2 != 0 {
		return fmt.Errorf("pastry: leaf size %d must be even and >= 2", c.LeafSize)
	}
	return nil
}

// NodeRef identifies a node: its position in the id space plus its network
// address. It is the value passed around by routing and by TAP's
// performance-optimized tunnels (which embed the Addr as an "IP hint").
type NodeRef struct {
	ID   id.ID
	Addr simnet.Addr
}

func (r NodeRef) String() string {
	return fmt.Sprintf("%s@%d", r.ID.Short(), r.Addr)
}
