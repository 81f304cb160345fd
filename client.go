package tap

import (
	"fmt"
	"time"

	"tap/internal/app/anonfile"
	"tap/internal/app/mail"
	"tap/internal/app/session"
	"tap/internal/core"
	"tap/internal/rng"
)

// Client is one node's view of TAP: its anchor pool, tunnels, and
// anonymous operations. Create clients with Network.NewClient.
type Client struct {
	net    *Network
	in     *core.Initiator
	stream *rng.Stream
}

// NewClient attaches a TAP client to a uniformly random live node. The
// label keeps distinct clients on distinct deterministic random streams.
func (n *Network) NewClient(label string) (*Client, error) {
	n.clients++
	stream := n.w.Root.SplitN("client-"+label, n.clients)
	node := n.w.OV.RandomLive(stream.Split("pick"))
	in, err := core.NewInitiator(n.w.Svc, node, stream.Split("state"))
	if err != nil {
		return nil, fmt.Errorf("tap: %w", err)
	}
	return &Client{net: n, in: in, stream: stream.Split("ops")}, nil
}

// NodeID returns the id of the node this client runs on.
func (c *Client) NodeID() ID { return c.in.Node().ID() }

// AnchorCount returns the number of live anchors in the client's pool.
func (c *Client) AnchorCount() int { return c.in.PoolSize() }

// DeployAnchors deploys count tunnel hop anchors through the
// Onion-Routing bootstrap (§3.3), retrying over fresh relay paths if one
// dies mid-deployment. Until a client has anchors it cannot form tunnels.
func (c *Client) DeployAnchors(count int) error {
	return c.in.Bootstrap(count, c.net.pki, 5)
}

// DeployAnchorsViaTunnel deploys more anchors through an existing tunnel
// instead of the bootstrap (what a client does once its first tunnel
// works).
func (c *Client) DeployAnchorsViaTunnel(t *Tunnel, count int) error {
	return c.in.DeployViaTunnel(t, count)
}

// NewTunnel forms a tunnel of length l (0 selects the network default)
// from the client's anchor pool, scattering hopids per §3.5.
func (c *Client) NewTunnel(l int) (*Tunnel, error) {
	return c.in.FormTunnel(c.net.length(l))
}

// NewTunnelPair forms a disjoint (forward, reply) tunnel pair, as the §4
// exchange requires.
func (c *Client) NewTunnelPair(l int) (fwd, rep *Tunnel, err error) {
	tunnels, err := c.in.FormDisjointTunnels(2, c.net.length(l))
	if err != nil {
		return nil, nil, err
	}
	return tunnels[0], tunnels[1], nil
}

// RetireTunnel deletes the tunnel's anchors (with their password proofs)
// and drops them from the pool — the refresh policy the paper recommends
// against anchor accumulation.
func (c *Client) RetireTunnel(t *Tunnel) error {
	return c.in.DeleteAnchors(t)
}

// SendResult reports an anonymous send.
type SendResult struct {
	// Payload is the plaintext as it arrived at the destination owner.
	Payload []byte
	// Responder is the node that received it.
	Responder ID
	// OverlayHops is the total routing cost.
	OverlayHops int
}

// Send delivers payload anonymously through the tunnel to the node owning
// dest, with full layered encryption and fault-tolerant hop resolution.
func (c *Client) Send(t *Tunnel, dest ID, payload []byte) (*SendResult, error) {
	env, err := core.BuildForward(t, nil, dest, payload, c.stream)
	if err != nil {
		return nil, err
	}
	res, err := c.net.w.Svc.DeliverForward(c.in.Node().Ref().Addr, env)
	if err != nil {
		return nil, err
	}
	return &SendResult{
		Payload:     res.Payload,
		Responder:   res.DestNode.ID,
		OverlayHops: res.Stats.OverlayHops,
	}, nil
}

// RetrieveFile fetches a published file anonymously over a fresh
// forward/reply tunnel pair (the complete §4 exchange, including the
// temporary keypair K_I, the reply bid, and the fake onion).
func (c *Client) RetrieveFile(fid ID) ([]byte, error) {
	fwd, rep, err := c.NewTunnelPair(0)
	if err != nil {
		return nil, err
	}
	return c.RetrieveFileVia(fwd, rep, fid)
}

// RetrieveFileVia is RetrieveFile over caller-supplied tunnels, letting
// applications reuse long-lived tunnels across retrievals.
func (c *Client) RetrieveFileVia(fwd, rep *Tunnel, fid ID) ([]byte, error) {
	res, err := anonfile.Retrieve(c.net.lib, c.in, fwd, rep, fid, c.stream.Split("retrieve"))
	if err != nil {
		return nil, err
	}
	return res.Content, nil
}

// Session is a long-standing anonymous request/response session.
type Session = session.Session

// SessionHandler is the server-side request processor.
type SessionHandler = session.Handler

// OpenSession establishes a long-standing session to the owner of server,
// the paper's remote-login use case. The session survives hop-node
// failures.
func (c *Client) OpenSession(server ID, l int) (*Session, error) {
	return session.Open(c.in, server, c.net.length(l), c.stream.Split("session"))
}

// FixedSession is a session over the "current tunneling" baseline: a
// fixed-node path that dies with any relay. It exists for comparisons.
type FixedSession = session.FixedSession

// OpenBaselineSession opens a fixed-node baseline session against the
// owner of server, for comparing against TAP sessions.
func OpenBaselineSession(n *Network, server ID, l int) (*FixedSession, error) {
	return session.OpenFixed(n.w.Svc, server, n.length(l), n.w.Root.Split("baseline-session"))
}

// --- anonymous mail -----------------------------------------------------------

// MailMessage is one piece of anonymous mail.
type MailMessage = mail.Message

// NewPseudonym mints an unlinkable mailbox id for this client. Share it
// out of band; senders deposit to it without learning whose it is.
func (c *Client) NewPseudonym() ID {
	return mail.NewPseudonym(c.stream.Split("pseudonym"))
}

// SendMail deposits mail for a pseudonym through a fresh tunnel of the
// network's default length. When withReply is set, a single-use reply
// tunnel rides along and the returned bid identifies where the answer
// will land (this client's node).
func (c *Client) SendMail(pseudonym ID, body []byte, withReply bool) (ID, error) {
	t, err := c.NewTunnel(0)
	if err != nil {
		return ID{}, err
	}
	return c.net.mail.Send(c.in, t, pseudonym, body, withReply, c.stream.Split("mail-send"))
}

// FetchMail drains a pseudonym's mailbox anonymously over a fresh
// forward/reply tunnel pair.
func (c *Client) FetchMail(pseudonym ID) ([]MailMessage, error) {
	fwd, rep, err := c.NewTunnelPair(0)
	if err != nil {
		return nil, err
	}
	return c.net.mail.Fetch(c.in, fwd, rep, pseudonym, c.stream.Split("mail-fetch"))
}

// ReplyMail answers a received message over its attached reply tunnel.
func (c *Client) ReplyMail(m MailMessage, body []byte) (ID, error) {
	return c.net.mail.Reply(c.in.Node().Ref().Addr, m, body)
}

// PendingMail reports how many messages wait in a pseudonym's mailbox
// (an oracle view for tests and demos; a real recipient learns this by
// fetching).
func (n *Network) PendingMail(pseudonym ID) int { return n.mail.Pending(pseudonym) }

// --- timed transfers over the discrete-event network -------------------------

// TransferMode selects how a timed transfer travels.
type TransferMode int

// Transfer modes, matching Figure 6's curves.
const (
	Overt    TransferMode = iota // plain P2P routing, no anonymity
	TAPBasic                     // tunnel, hopids only
	TAPOpt                       // tunnel with §5 address hints
)

// TimedTransfer sends size bytes to the owner of dest over the simulated
// network and returns the transfer's simulated duration — the Figure 6
// measurement. Tunnel modes form a fresh tunnel of length l from the
// client's pool.
func (c *Client) TimedTransfer(mode TransferMode, dest ID, size int, l int) (time.Duration, error) {
	start := c.net.kernel.Now()
	var out core.Outcome
	got := false
	done := func(o core.Outcome) { out = o; got = true }
	switch mode {
	case Overt:
		c.net.eng.SendOvert(c.in.Node().Ref().Addr, dest, size, done)
	case TAPBasic, TAPOpt:
		tun, err := c.in.FormTunnel(c.net.length(l))
		if err != nil {
			return 0, err
		}
		if mode == TAPOpt {
			if err := tun.RefreshHints(c.net.w.Svc); err != nil {
				return 0, err
			}
		}
		env, err := core.BuildForwardHinted(tun, dest, make([]byte, size), c.stream)
		if err != nil {
			return 0, err
		}
		c.net.eng.SendForward(c.in.Node().Ref().Addr, env, done)
	default:
		return 0, fmt.Errorf("tap: unknown transfer mode %d", mode)
	}
	if err := c.net.kernel.Run(); err != nil {
		return 0, err
	}
	if !got || !out.Delivered {
		return 0, fmt.Errorf("tap: transfer failed (%s)", out.FailedAt)
	}
	return out.At - start, nil
}
