package tap

import (
	"errors"
	"fmt"
	"slices"

	"tap/internal/app/anonfile"
	"tap/internal/app/mail"
	"tap/internal/churn"
	"tap/internal/core"
	"tap/internal/experiments"
	"tap/internal/id"
	"tap/internal/onionroute"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
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
// field selects the paper's setting. The overlay always runs the paper's
// Pastry (b = 4, L = 16), and the discrete-event network is always built.
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
	// Seed roots all randomness. Default 1.
	Seed uint64
	// PuzzleDifficulty, when positive, charges a CPU puzzle (hashcash
	// leading-zero bits) per anchor deployment, the §3.3 flood defense.
	PuzzleDifficulty int
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
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Network is a complete simulated TAP deployment: the experiment
// harness's world (overlay, replicated anchor storage, service, adversary)
// on its discrete-event network, plus a PKI, a file library and mail.
type Network struct {
	opts Options
	w    *experiments.World
	pki  *onionroute.PKI
	lib  *anonfile.Library
	mail *mail.Service

	kernel *simnet.Kernel
	simnet *simnet.Network
	eng    *core.NetEngine

	clients    int
	failStream *rng.Stream
}

// New builds a deployment per opts: the paper's Pastry (b = 4, L = 16) of
// opts.Nodes nodes with PAST replication opts.ReplicationFactor, always on
// the discrete-event network. A node that leaves the overlay, by any of
// the failure and churn calls below, leaves the network with it.
func New(opts Options) (*Network, error) {
	opts = opts.withDefaults()
	w, err := experiments.BuildWorld(opts.Nodes, opts.ReplicationFactor, rng.New(opts.Seed))
	if err != nil {
		return nil, fmt.Errorf("tap: %w", err)
	}
	w.Dir.PuzzleDifficulty = opts.PuzzleDifficulty
	n := &Network{
		opts:       opts,
		w:          w,
		pki:        onionroute.NewPKI(w.Root.Split("pki")),
		lib:        anonfile.NewLibrary(w.Svc),
		mail:       mail.NewService(w.Svc),
		failStream: w.Root.Split("fail"),
	}
	n.kernel, n.simnet, n.eng = w.NewEngine(opts.Seed)
	n.kernel.MaxSteps = 50_000_000
	// PAST migrates the departed node's replicas first, then the node
	// leaves the network.
	prevLeave := w.OV.OnLeave
	w.OV.OnLeave = func(r pastry.NodeRef) {
		prevLeave(r)
		n.simnet.Detach(r.Addr)
	}
	return n, nil
}

// Size returns the number of live nodes.
func (n *Network) Size() int { return n.w.OV.Size() }

// Options returns the configuration the network was built with.
func (n *Network) Options() Options { return n.opts }

// length resolves a tunnel length argument: 0 selects the network default.
func (n *Network) length(l int) int {
	if l == 0 {
		return n.opts.TunnelLength
	}
	return l
}

// OwnerOf returns the id of the live node numerically closest to key.
func (n *Network) OwnerOf(key ID) ID { return n.w.OV.OwnerOf(key).ID() }

// --- membership -------------------------------------------------------------

// ErrNoSuchNode reports an unknown or dead node.
var ErrNoSuchNode = errors.New("tap: no such live node")

// FailNodeOwning fails the live node that currently owns key (useful for
// killing a specific tunnel hop node).
func (n *Network) FailNodeOwning(key ID) error {
	node := n.w.OV.OwnerOf(key)
	if node == nil {
		return ErrNoSuchNode
	}
	return n.w.OV.Fail(node.Ref().Addr)
}

// FailRandom fails one uniformly random live node and returns its id.
// Nodes listed in avoid are spared (e.g. a client's own node or a file's
// responder, when an experiment must keep the endpoints alive).
func (n *Network) FailRandom(avoid ...ID) (ID, error) {
	for tries := 0; tries < 1024; tries++ {
		node := n.w.OV.RandomLive(n.failStream)
		nid := node.ID()
		if slices.Contains(avoid, nid) {
			continue
		}
		if err := n.w.OV.Fail(node.Ref().Addr); err != nil {
			return ID{}, err
		}
		return nid, nil
	}
	return ID{}, fmt.Errorf("tap: no failable node outside the avoid set")
}

// FailFraction fails ⌊p·N⌋ random nodes simultaneously (no re-replication
// between failures): anchors whose whole replica set is hit are lost.
// Returns how many nodes failed.
func (n *Network) FailFraction(p float64) int {
	return len(churn.FailFraction(n.w.OV, n.w.Mgr, p, n.w.Root.Split("failfrac"), nil))
}

// ChurnWave performs one unit of churn: `leaves` random benign departures
// then `joins` arrivals, with repair between departures. Malicious nodes
// never leave.
func (n *Network) ChurnWave(leaves, joins int) {
	churn.Wave(n.w.OV, leaves, joins, n.w.Root.Split("wave"), func(a simnet.Addr) bool {
		return !n.w.Col.IsMalicious(a)
	})
}

// Join adds one fresh node and returns its id.
func (n *Network) Join() ID {
	return n.w.OV.Join().ID()
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
	return a.n.w.Col.MarkFraction(p, a.n.w.Root.Split("corrupt"))
}

// LeakedAnchors returns how many distinct anchors the collusion holds.
func (a Adversary) LeakedAnchors() int { return a.n.w.Col.LeakedCount() }

// TunnelCorrupted reports whether the adversary holds every hop anchor of
// the tunnel (the paper's case-1 compromise).
func (a Adversary) TunnelCorrupted(t *Tunnel) bool { return a.n.w.Col.TunnelCorrupted(t) }

// CorruptionRate returns the corrupted fraction of a tunnel population.
func (a Adversary) CorruptionRate(tunnels []*Tunnel) float64 {
	return a.n.w.Col.CorruptionRate(tunnels)
}
