package tap

import (
	"errors"
	"fmt"

	"tap/internal/adversary"
	"tap/internal/app/anonfile"
	"tap/internal/app/mail"
	"tap/internal/churn"
	"tap/internal/core"
	"tap/internal/id"
	"tap/internal/onionroute"
	"tap/internal/past"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/secroute"
	"tap/internal/simnet"
	"tap/internal/tha"
)

// ID is a 160-bit identifier on the DHT ring: node ids, file ids, hopids,
// and bids all live in this space.
type ID = id.ID

// KeyOf hashes a name into the identifier space (SHA-1, as the paper's
// hopid derivation uses).
func KeyOf(name string) ID { return id.HashString(name) }

// ParseID decodes a 40-hex-digit identifier.
func ParseID(s string) (ID, error) { return id.Parse(s) }

// Tunnel is an anonymous TAP tunnel owned by a client.
type Tunnel = core.Tunnel

// FixedTunnel is the "current tunneling" baseline: a fixed-node path that
// dies with any member.
type FixedTunnel = core.FixedTunnel

// Options configures a simulated TAP deployment. The zero value of every
// field selects the paper's setting.
type Options struct {
	// Nodes is the overlay size. Default 1,000 (the paper evaluates up to
	// 10,000).
	Nodes int
	// ReplicationFactor is PAST's k: each tunnel hop anchor lives on the
	// k nodes closest to its hopid. Default 3.
	ReplicationFactor int
	// TunnelLength is the default l for NewTunnel and friends. Default 5
	// ("the tunnel length of 5 catches the knee of the curve").
	TunnelLength int
	// DigitBits is Pastry's b. Default 4.
	DigitBits int
	// LeafSize is Pastry's leaf set size L. Default 16.
	LeafSize int
	// Seed roots all randomness. Default 1.
	Seed uint64
	// PuzzleDifficulty, when positive, charges a CPU puzzle (hashcash
	// leading-zero bits) per anchor deployment, the §3.3 flood defense.
	PuzzleDifficulty int
	// DisableNetwork skips the discrete-event network; logical delivery
	// still works and construction is slightly cheaper.
	DisableNetwork bool
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 1000
	}
	if o.ReplicationFactor == 0 {
		o.ReplicationFactor = 3
	}
	if o.TunnelLength == 0 {
		o.TunnelLength = 5
	}
	if o.DigitBits == 0 {
		o.DigitBits = 4
	}
	if o.LeafSize == 0 {
		o.LeafSize = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Network is a complete simulated TAP deployment: overlay, replicated
// anchor storage, network emulator, PKI, file library, and adversary.
type Network struct {
	opts Options
	root *rng.Stream

	ov   *pastry.Overlay
	mgr  *past.Manager
	dir  *tha.Directory
	svc  *core.Service
	pki  *onionroute.PKI
	lib  *anonfile.Library
	mail *mail.Service
	col  *adversary.Collusion

	kernel *simnet.Kernel
	simnet *simnet.Network
	eng    *core.NetEngine

	clients    int
	failStream *rng.Stream
	routeAdv   *secroute.Adversary
}

// New builds a deployment per opts.
func New(opts Options) (*Network, error) {
	opts = opts.withDefaults()
	root := rng.New(opts.Seed)
	cfg := pastry.Config{B: opts.DigitBits, LeafSize: opts.LeafSize, MaxRouteHops: 64}
	ov, err := pastry.Build(cfg, opts.Nodes, root.Split("overlay"))
	if err != nil {
		return nil, fmt.Errorf("tap: %w", err)
	}
	mgr := past.NewManager(ov, opts.ReplicationFactor)
	dir := tha.NewDirectory(ov, mgr)
	dir.PuzzleDifficulty = opts.PuzzleDifficulty
	svc := core.NewService(ov, dir, root.Split("svc"))
	n := &Network{
		opts: opts,
		root: root,
		ov:   ov,
		mgr:  mgr,
		dir:  dir,
		svc:  svc,
		pki:  onionroute.NewPKI(root.Split("pki")),
		col:  adversary.NewCollusion(ov, mgr),
	}
	n.lib = anonfile.NewLibrary(svc)
	n.mail = mail.NewService(svc)
	if !opts.DisableNetwork {
		n.kernel = simnet.NewKernel()
		n.kernel.MaxSteps = 50_000_000
		n.simnet = simnet.NewNetwork(n.kernel, simnet.DefaultLinkModel(opts.Seed), ov.NumAddrs())
		n.eng = core.NewNetEngine(svc, n.simnet)
	}
	return n, nil
}

// Size returns the number of live nodes.
func (n *Network) Size() int { return n.ov.Size() }

// Options returns the configuration the network was built with.
func (n *Network) Options() Options { return n.opts }

// OwnerOf returns the id of the live node numerically closest to key.
func (n *Network) OwnerOf(key ID) ID { return n.ov.OwnerOf(key).ID() }

// --- membership -------------------------------------------------------------

// ErrNoSuchNode reports an unknown or dead node.
var ErrNoSuchNode = errors.New("tap: no such live node")

// FailNodeOwning fails the live node that currently owns key (useful for
// killing a specific tunnel hop node).
func (n *Network) FailNodeOwning(key ID) error {
	node := n.ov.OwnerOf(key)
	if node == nil {
		return ErrNoSuchNode
	}
	addr := node.Ref().Addr
	if err := n.ov.Fail(addr); err != nil {
		return err
	}
	if n.simnet != nil {
		n.simnet.Detach(addr)
	}
	return nil
}

// FailRandom fails one uniformly random live node and returns its id.
// Nodes listed in avoid are spared (e.g. a client's own node or a file's
// responder, when an experiment must keep the endpoints alive).
func (n *Network) FailRandom(avoid ...ID) (ID, error) {
	if n.failStream == nil {
		n.failStream = n.root.Split("fail")
	}
	stream := n.failStream
	for tries := 0; tries < 1024; tries++ {
		node := n.ov.RandomLive(stream)
		nid := node.ID()
		spared := false
		for _, a := range avoid {
			if a == nid {
				spared = true
				break
			}
		}
		if spared {
			continue
		}
		addr := node.Ref().Addr
		if err := n.ov.Fail(addr); err != nil {
			return ID{}, err
		}
		if n.simnet != nil {
			n.simnet.Detach(addr)
		}
		return nid, nil
	}
	return ID{}, fmt.Errorf("tap: no failable node outside the avoid set")
}

// FailFraction fails ⌊p·N⌋ random nodes simultaneously (no re-replication
// between failures): anchors whose whole replica set is hit are lost.
// Returns how many nodes failed.
func (n *Network) FailFraction(p float64) int {
	victims := churn.FailFraction(n.ov, n.mgr, p, n.root.Split("failfrac"), nil)
	if n.simnet != nil {
		for _, v := range victims {
			n.simnet.Detach(v.Addr)
		}
	}
	return len(victims)
}

// ChurnWave performs one unit of churn: `leaves` random benign departures
// then `joins` arrivals, with repair between departures. Malicious nodes
// never leave.
func (n *Network) ChurnWave(leaves, joins int) {
	left := churn.Wave(n.ov, leaves, joins, n.root.Split("wave"), func(a simnet.Addr) bool {
		return !n.col.IsMalicious(a)
	})
	_ = left
	if n.simnet != nil {
		// Detach departed addresses: any address no longer live.
		for a := 0; a < n.ov.NumAddrs(); a++ {
			node := n.ov.Node(simnet.Addr(a))
			if node != nil && !node.Alive() && n.simnet.Attached(simnet.Addr(a)) {
				n.simnet.Detach(simnet.Addr(a))
			}
		}
	}
}

// Join adds one fresh node and returns its id.
func (n *Network) Join() ID {
	return n.ov.Join().ID()
}

// --- files -------------------------------------------------------------------

// PublishFile stores content in the network under H(name) and returns the
// file id. The file lives on the node closest to the id (its responder).
func (n *Network) PublishFile(name string, content []byte) ID {
	return n.lib.Publish(name, content)
}

// --- adversary ----------------------------------------------------------------

// Adversary exposes the colluding-malicious-node model.
type Adversary struct{ n *Network }

// Adversary returns the network's adversary handle.
func (n *Network) Adversary() Adversary { return Adversary{n} }

// Corrupt marks ⌊p·N⌋ random nodes malicious and colluding; they pool
// every anchor replica they ever receive. Returns the collusion size.
func (a Adversary) Corrupt(p float64) int {
	return a.n.col.MarkFraction(p, a.n.root.Split("corrupt"))
}

// LeakedAnchors returns how many distinct anchors the collusion holds.
func (a Adversary) LeakedAnchors() int { return a.n.col.LeakedCount() }

// TunnelCorrupted reports whether the adversary holds every hop anchor of
// the tunnel (the paper's case-1 compromise).
func (a Adversary) TunnelCorrupted(t *Tunnel) bool { return a.n.col.TunnelCorrupted(t) }

// CorruptionRate returns the corrupted fraction of a tunnel population.
func (a Adversary) CorruptionRate(tunnels []*Tunnel) float64 {
	return a.n.col.CorruptionRate(tunnels)
}
