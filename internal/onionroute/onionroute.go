// Package onionroute implements the classic Onion Routing bootstrap TAP
// uses to deploy its first tunnel hop anchors anonymously (§3.3).
//
// Before a node has any working TAP tunnel it cannot deploy anchors
// anonymously through one, so it builds a conventional onion over a
// handful of directly-addressed relay nodes, "relying on a public key
// infrastructure on a P2P system by assuming each node has a pair of
// private and public keys". Each onion layer is sealed to one relay's
// public key and carries an instruction to store one anchor, plus the next
// hop. Unlike TAP tunnels, this path is brittle by design: if any relay is
// dead the deployment aborts and the initiator simply retries with a
// different path — "the deploying process is not performance critical".
//
// Relay selection follows the Tarzan-style rule the paper suggests:
// relays are chosen with distinct address prefixes so one operator (one
// subnet) is unlikely to own the whole path.
package onionroute

import (
	"errors"
	"fmt"

	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/tha"
	"tap/internal/wire"
)

// PKI hands out the per-node asymmetric keypairs the bootstrap assumes.
// Keys are derived deterministically and lazily from a seed stream, so a
// 10,000-node overlay does not pay 10,000 key generations up front.
type PKI struct {
	root *rng.Stream
	keys map[simnet.Addr]*crypt.BoxKeyPair
}

// NewPKI creates a key authority rooted at stream.
func NewPKI(stream *rng.Stream) *PKI {
	return &PKI{root: stream.Split("pki"), keys: make(map[simnet.Addr]*crypt.BoxKeyPair)}
}

// KeyOf returns (generating on first use) the keypair of the node at addr.
func (p *PKI) KeyOf(addr simnet.Addr) *crypt.BoxKeyPair {
	if kp, ok := p.keys[addr]; ok {
		return kp
	}
	kp, err := crypt.NewBoxKeyPair(p.root.SplitN("node", int(addr)))
	if err != nil {
		// X25519 keygen from a functioning reader cannot fail; treat as a
		// programming error.
		panic(fmt.Sprintf("onionroute: keygen for %d: %v", addr, err))
	}
	p.keys[addr] = kp
	return kp
}

// PublicOf returns the public key of the node at addr.
func (p *PKI) PublicOf(addr simnet.Addr) crypt.BoxPublicKey {
	return p.KeyOf(addr).Public()
}

// Instruction tells one relay to store one anchor, paying the given
// puzzle nonce.
type Instruction struct {
	Anchor tha.Anchor
	Nonce  uint64
}

// AppendInstruction writes an instruction: the anchor record's one wire
// form (tha.AppendAnchor), then the puzzle nonce. Bootstrap onion layers
// and DeployViaTunnel's payloads both carry it.
func AppendInstruction(w *wire.Writer, ins Instruction) {
	tha.AppendAnchor(w, ins.Anchor)
	w.Uint64(ins.Nonce)
}

// ReadInstruction reads what AppendInstruction writes, refusing an anchor
// whose blobs are not exactly their fields (wire.ErrBlobLen). What follows
// in r is the caller's.
func ReadInstruction(r *wire.Reader) (Instruction, error) {
	ins := Instruction{Anchor: tha.ReadAnchor(r)}
	ins.Nonce = r.Uint64()
	return ins, r.Err()
}

// SelectPath picks l distinct live relays with pairwise-distinct address
// prefixes (addr >> prefixShift stands in for an IP /16). It falls back to
// allowing prefix reuse only when the overlay is too small to avoid it.
func SelectPath(ov *pastry.Overlay, l int, stream *rng.Stream) ([]pastry.NodeRef, error) {
	if l <= 0 {
		return nil, errors.New("onionroute: path length must be positive")
	}
	if ov.Size() < l {
		return nil, fmt.Errorf("onionroute: overlay of %d nodes cannot host a %d-relay path", ov.Size(), l)
	}
	const prefixShift = 8
	usedPrefix := make(map[int]struct{}, l)
	usedAddr := make(map[simnet.Addr]struct{}, l)
	path := make([]pastry.NodeRef, 0, l)
	const maxTries = 4096
	for tries := 0; len(path) < l && tries < maxTries; tries++ {
		n := ov.RandomLive(stream)
		ref := n.Ref()
		if _, dup := usedAddr[ref.Addr]; dup {
			continue
		}
		prefix := int(ref.Addr) >> prefixShift
		if _, dup := usedPrefix[prefix]; dup {
			// Enforce prefix diversity while the overlay plausibly allows
			// it; relax near the end of the search.
			if tries < maxTries/2 {
				continue
			}
		}
		usedAddr[ref.Addr] = struct{}{}
		usedPrefix[prefix] = struct{}{}
		path = append(path, ref)
	}
	if len(path) < l {
		return nil, fmt.Errorf("onionroute: could not assemble a %d-relay path", l)
	}
	return path, nil
}

// BuildOnion seals one instruction per relay into a nested onion. Layer i
// can only be opened by path[i]; it reveals that relay's instruction and
// the address of the next relay (NoAddr at the tail).
func BuildOnion(pki *PKI, path []pastry.NodeRef, instrs []Instruction, stream *rng.Stream) ([]byte, error) {
	if len(path) != len(instrs) {
		return nil, fmt.Errorf("onionroute: %d relays but %d instructions", len(path), len(instrs))
	}
	if len(path) == 0 {
		return nil, errors.New("onionroute: empty path")
	}
	// Build from the innermost (tail) layer outward.
	var inner []byte
	for i := len(path) - 1; i >= 0; i-- {
		w := wire.NewWriter(tha.WireSize + 64 + len(inner))
		AppendInstruction(w, instrs[i])
		if i == len(path)-1 {
			w.Int64(int64(simnet.NoAddr))
		} else {
			w.Int64(int64(path[i+1].Addr))
		}
		w.Blob(inner)
		sealed, err := crypt.BoxSeal(pki.PublicOf(path[i].Addr), stream, w.Bytes())
		if err != nil {
			return nil, fmt.Errorf("onionroute: sealing layer %d: %w", i, err)
		}
		inner = sealed
	}
	return inner, nil
}

// Errors from onion execution.
var (
	// ErrRelayDead aborts a deployment when a path relay has left the
	// system; the caller retries over a fresh path.
	ErrRelayDead = errors.New("onionroute: relay on bootstrap path is dead")
)

// Execute walks the onion through its relays: each live relay opens its
// layer with its private key, deploys the contained anchor, and hands the
// inner onion to the next relay. Any dead relay or rejected deployment
// aborts the walk with an error; anchors already stored by earlier relays
// remain (the initiator deletes them with their passwords if it cares).
// It returns the addresses of relays that successfully executed.
func Execute(onion []byte, first simnet.Addr, ov *pastry.Overlay, dir *tha.Directory, pki *PKI) ([]simnet.Addr, error) {
	var done []simnet.Addr
	addr := first
	blob := onion
	for {
		node := ov.Node(addr)
		if node == nil || !node.Alive() {
			return done, fmt.Errorf("%w: addr %d", ErrRelayDead, addr)
		}
		plain, err := pki.KeyOf(addr).BoxOpen(blob)
		if err != nil {
			return done, fmt.Errorf("onionroute: relay %d cannot open layer: %w", addr, err)
		}
		r := wire.NewReader(plain)
		ins, err := ReadInstruction(r)
		if err != nil {
			return done, fmt.Errorf("onionroute: relay %d: malformed instruction: %w", addr, err)
		}
		next := simnet.Addr(r.Int64())
		inner := r.Blob()
		if err := r.Done(); err != nil {
			return done, fmt.Errorf("onionroute: relay %d: %w", addr, err)
		}
		if err := dir.Deploy(ins.Anchor, ins.Nonce); err != nil {
			return done, fmt.Errorf("onionroute: relay %d deploy: %w", addr, err)
		}
		done = append(done, addr)
		if next == simnet.NoAddr {
			return done, nil
		}
		addr = next
		blob = append([]byte(nil), inner...)
	}
}

// Deploy is the complete bootstrap operation: generate a path, build the
// onion carrying one instruction per relay, and execute it, retrying with
// fresh paths up to maxRetries times when a relay turns out to be dead.
// It returns the path used.
//
// The instruction count must not exceed the path length (one anchor per
// relay, per the paper's example); callers with more anchors run Deploy
// repeatedly — or, once their first tunnel works, use the tunnel instead.
func Deploy(ov *pastry.Overlay, dir *tha.Directory, pki *PKI, instrs []Instruction, stream *rng.Stream, maxRetries int) ([]pastry.NodeRef, error) {
	if len(instrs) == 0 {
		return nil, errors.New("onionroute: nothing to deploy")
	}
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		path, err := SelectPath(ov, len(instrs), stream)
		if err != nil {
			return nil, err
		}
		onion, err := BuildOnion(pki, path, instrs, stream)
		if err != nil {
			return nil, err
		}
		if _, err := Execute(onion, path[0].Addr, ov, dir, pki); err != nil {
			lastErr = err
			continue
		}
		return path, nil
	}
	return nil, fmt.Errorf("onionroute: deployment failed after %d retries: %w", maxRetries, lastErr)
}

// anchorKeyOf is a tiny helper for tests: the hopid list of a batch.
func anchorKeyOf(instrs []Instruction) []id.ID {
	out := make([]id.ID, len(instrs))
	for i, ins := range instrs {
		out[i] = ins.Anchor.HopID
	}
	return out
}
