// Package dst is the deterministic simulation-testing subsystem: it
// generates seeded churn/fault/traffic schedules, replays them on the
// discrete-event simulator while evaluating runtime invariant checkers
// after every event, and — on a violation — shrinks the event schedule to
// a minimal counterexample that replays bit-for-bit from its seed.
//
// The invariants are the paper's load-bearing claims: THA replicas must
// always be the k numerically-closest live nodes (§3), leaf sets must
// stay converged under churn, a tunnel whose anchors all retain a live
// replica must keep delivering across hop takeover (§6), terminal
// delivery must be exactly-once under retransmission, and no payload
// bytes may ever appear unsealed on the wire (Figure 1's layering).
//
// Every run is a pure function of (Scenario, Mutations): the same seed
// reproduces the same violation byte-for-byte, which is what makes the
// shrunk traces committed by cmd/tapcheck actionable.
package dst

import (
	"encoding/json"
	"fmt"
	"time"

	"tap/internal/rng"
	"tap/internal/simnet"
)

// EventKind names one schedule step. String-typed so dumped traces read
// without a decoder ring.
type EventKind string

const (
	// EvJoin adds one fresh node to the overlay.
	EvJoin EventKind = "join"
	// EvFail kills one node (overlay failure + network detach). The
	// victim is resolved from the Addr selector at execution time.
	EvFail EventKind = "fail"
	// EvBatchFail kills several nodes simultaneously (migration
	// suspended for the batch, the Figure 2 correlated-failure model).
	EvBatchFail EventKind = "batch-fail"
	// EvDeploy has a client deploy N fresh hop anchors.
	EvDeploy EventKind = "deploy"
	// EvForm has a client form an L-hop tunnel from its pool.
	EvForm EventKind = "form"
	// EvSend has a client send a reliable forward-tunnel flow.
	EvSend EventKind = "send"
	// EvPool has a client build and start a self-healing tunnel pool of N
	// tunnels of length L (deploying any missing anchors itself). At most
	// one pool per client; a second EvPool skips.
	EvPool EventKind = "pool"
	// EvPartition cuts the client's node off from the rest of the network
	// for Dur (symmetric by default; Asym drops only traffic into the
	// client). Healing is scheduled automatically, so a partition window
	// stays self-contained under shrinking.
	EvPartition EventKind = "partition"
	// EvPoolSend has a client send through its tunnel pool (failover and
	// fast-fail semantics) rather than over one fixed tunnel.
	EvPoolSend EventKind = "pool-send"
	// EvStream has a client open a windowed stream — over one of its
	// formed tunnels when it has any, else the direct overt path — and
	// pump Size bytes through a W-segment send window.
	EvStream EventKind = "stream"
)

// Event is one concrete schedule step. Selector fields (Addr, Addrs, T)
// are raw values resolved against live state at execution time, so an
// event stays applicable — or skips cleanly — after the shrinker removes
// arbitrary earlier events.
type Event struct {
	At   simnet.Time `json:"at"`
	Kind EventKind   `json:"kind"`

	Addr  uint64   `json:"addr,omitempty"`  // fail: victim selector
	Addrs []uint64 `json:"addrs,omitempty"` // batch-fail: victim selectors

	Client int  `json:"client,omitempty"` // deploy/form/send/pool/partition: client index
	N      int  `json:"n,omitempty"`      // deploy: anchor count; pool: pool size
	L      int  `json:"l,omitempty"`      // form/pool: tunnel length
	T      int  `json:"t,omitempty"`      // send: tunnel selector (mod formed tunnels)
	Size   int  `json:"size,omitempty"`   // send/pool-send/stream: payload bytes
	Hints  bool `json:"hints,omitempty"`  // send: refresh the tunnel's hints and ride them (else DHT-route every hop)
	W      int  `json:"w,omitempty"`      // stream: send window (segments)

	Asym bool        `json:"asym,omitempty"` // partition: inbound-only cut
	Dur  simnet.Time `json:"dur,omitempty"`  // partition: window length
}

// Profile selects which event mix the generator draws from.
type Profile string

const (
	// ProfileFull mixes membership churn, anchor deployment, tunnel
	// formation and traffic — the default for cmd/tapcheck.
	ProfileFull Profile = "full"
	// ProfileMembership drives only joins, failures and batch failures:
	// the overlay/leaf-set property surface.
	ProfileMembership Profile = "membership"
	// ProfileStorage drives membership churn plus anchor deployments,
	// with no traffic: the THA replication property surface.
	ProfileStorage Profile = "storage"
	// ProfilePool drives tunnel pools through churn and network
	// partitions: the self-healing property surface (reconvergence and
	// rebuild admission control). Loss-free by construction so pool
	// reconvergence stays decidable.
	ProfilePool Profile = "pool"
	// ProfileStream drives windowed streams through churn, loss and
	// adversarial reordering: the in-order-stream-delivery and
	// window-conservation property surface. Both stream invariants stay
	// decidable under loss (a stream that exhausts its retries resolves
	// honestly), so lossy seeds are as useful as loss-free ones.
	ProfileStream Profile = "stream"
)

// Scenario is one replayable simulation: world shape, fault knobs, and
// the event schedule. Everything is exported and JSON-clean so shrunk
// counterexamples dump and reload losslessly.
type Scenario struct {
	Seed    uint64  `json:"seed"`
	Profile Profile `json:"profile"`

	Nodes   int `json:"nodes"`
	K       int `json:"k"`
	Clients int `json:"clients"`

	// Loss and Spike configure a simnet FaultPlan; Reorder is the
	// probability each delivered frame is held back by an extra delay up
	// to ReorderMax (adversarial reordering: retransmissions can overtake
	// originals).
	Loss       float64     `json:"loss"`
	Spike      float64     `json:"spike"`
	Reorder    float64     `json:"reorder"`
	ReorderMax simnet.Time `json:"reorder_max"`

	Events []Event `json:"events"`
}

// WithEvents returns a copy of the scenario carrying a different event
// schedule — the shrinker's workhorse.
func (sc *Scenario) WithEvents(events []Event) *Scenario {
	out := *sc
	out.Events = events
	return &out
}

// JSON renders the scenario for trace files.
func (sc *Scenario) JSON() ([]byte, error) {
	return json.MarshalIndent(sc, "", "  ")
}

// DecodeScenario parses a scenario dumped by JSON.
func DecodeScenario(b []byte) (*Scenario, error) {
	var sc Scenario
	if err := json.Unmarshal(b, &sc); err != nil {
		return nil, fmt.Errorf("dst: decoding scenario: %w", err)
	}
	return &sc, nil
}

// Gen derives a scenario from a seed. The same (seed, profile) always
// yields the same scenario; distinct seeds explore different world sizes,
// fault intensities and event mixes. Roughly half of all seeds are
// loss-free, because the tunnel-liveness invariant is only decidable
// without loss (a retransmit budget can exhaust honestly under it).
func Gen(seed uint64, profile Profile) *Scenario {
	root := rng.New(seed)
	shape := root.Split("shape")
	evs := root.Split("events")

	sc := &Scenario{
		Seed:    seed,
		Profile: profile,
		Nodes:   40 + shape.Intn(80),
		K:       3 + shape.Intn(2),
		Clients: 2,
	}
	if profile == ProfileMembership {
		sc.Clients = 0
	}
	if profile == ProfileFull || profile == ProfileStream {
		if shape.Bool(0.5) {
			sc.Loss = 0.02 + 0.1*shape.Float64()
		}
		if shape.Bool(0.3) {
			sc.Spike = 0.05 + 0.15*shape.Float64()
		}
		if shape.Bool(0.5) {
			sc.Reorder = 0.05 + 0.25*shape.Float64()
			sc.ReorderMax = simnet.Time(50+shape.Intn(450)) * time.Millisecond
		}
	}

	// A deterministic prelude gives traffic something to ride on: anchors
	// first, then tunnels. The prelude is ordinary schedule events — the
	// shrinker removes them like any others.
	at := simnet.Time(0)
	next := func() simnet.Time {
		at += simnet.Time(5+evs.Intn(120)) * time.Millisecond
		return at
	}
	switch profile {
	case ProfileFull, ProfileStream:
		for c := 0; c < sc.Clients; c++ {
			sc.Events = append(sc.Events, Event{At: next(), Kind: EvDeploy, Client: c, N: 8})
		}
		for c := 0; c < sc.Clients; c++ {
			sc.Events = append(sc.Events, Event{At: next(), Kind: EvForm, Client: c, L: 2 + evs.Intn(3)})
		}
	case ProfileStorage:
		for c := 0; c < sc.Clients; c++ {
			sc.Events = append(sc.Events, Event{At: next(), Kind: EvDeploy, Client: c, N: 8})
		}
	case ProfilePool:
		for c := 0; c < sc.Clients; c++ {
			sc.Events = append(sc.Events, Event{At: next(), Kind: EvPool, Client: c, N: 2, L: 2})
		}
	}

	n := 20 + evs.Intn(30)
	if profile == ProfilePool {
		// Pool scenarios run a long post-schedule repair horizon, so keep
		// the schedules themselves shorter.
		n = 12 + evs.Intn(12)
	}
	for i := 0; i < n; i++ {
		sc.Events = append(sc.Events, genEvent(sc, profile, evs, next()))
	}
	return sc
}

// genEvent draws one weighted random event.
func genEvent(sc *Scenario, profile Profile, evs *rng.Stream, at simnet.Time) Event {
	ev := Event{At: at}
	roll := evs.Intn(100)
	switch profile {
	case ProfileMembership:
		switch {
		case roll < 45:
			ev.Kind = EvJoin
		case roll < 90:
			ev.Kind = EvFail
			ev.Addr = uint64(evs.Intn(1 << 16))
		default:
			ev.Kind = EvBatchFail
			for i, m := 0, 2+evs.Intn(5); i < m; i++ {
				ev.Addrs = append(ev.Addrs, uint64(evs.Intn(1<<16)))
			}
		}
	case ProfilePool:
		switch {
		case roll < 15:
			ev.Kind = EvJoin
		case roll < 35:
			ev.Kind = EvFail
			ev.Addr = uint64(evs.Intn(1 << 16))
		case roll < 45:
			ev.Kind = EvBatchFail
			for i, m := 0, 2+evs.Intn(5); i < m; i++ {
				ev.Addrs = append(ev.Addrs, uint64(evs.Intn(1<<16)))
			}
		case roll < 65:
			ev.Kind = EvPartition
			ev.Client = evs.Intn(sc.Clients)
			ev.Asym = evs.Bool(0.3)
			ev.Dur = simnet.Time(20+evs.Intn(41)) * time.Second
		default:
			ev.Kind = EvPoolSend
			ev.Client = evs.Intn(sc.Clients)
			ev.Size = 256 + evs.Intn(1024)
		}
	case ProfileStream:
		switch {
		case roll < 15:
			ev.Kind = EvJoin
		case roll < 33:
			ev.Kind = EvFail
			ev.Addr = uint64(evs.Intn(1 << 16))
		case roll < 41:
			ev.Kind = EvBatchFail
			for i, m := 0, 2+evs.Intn(5); i < m; i++ {
				ev.Addrs = append(ev.Addrs, uint64(evs.Intn(1<<16)))
			}
		case roll < 53:
			ev.Kind = EvForm
			ev.Client = evs.Intn(sc.Clients)
			ev.L = 2 + evs.Intn(3)
		default:
			ev.Kind = EvStream
			ev.Client = evs.Intn(sc.Clients)
			ev.T = evs.Intn(8)
			ev.Size = 512 + evs.Intn(4096)
			ev.W = 2 + evs.Intn(6)
		}
	case ProfileStorage:
		switch {
		case roll < 30:
			ev.Kind = EvJoin
		case roll < 60:
			ev.Kind = EvFail
			ev.Addr = uint64(evs.Intn(1 << 16))
		case roll < 70:
			ev.Kind = EvBatchFail
			for i, m := 0, 2+evs.Intn(5); i < m; i++ {
				ev.Addrs = append(ev.Addrs, uint64(evs.Intn(1<<16)))
			}
		default:
			ev.Kind = EvDeploy
			ev.Client = evs.Intn(sc.Clients)
			ev.N = 2 + evs.Intn(4)
		}
	default: // ProfileFull
		switch {
		case roll < 18:
			ev.Kind = EvJoin
		case roll < 38:
			ev.Kind = EvFail
			ev.Addr = uint64(evs.Intn(1 << 16))
		case roll < 46:
			ev.Kind = EvBatchFail
			for i, m := 0, 2+evs.Intn(5); i < m; i++ {
				ev.Addrs = append(ev.Addrs, uint64(evs.Intn(1<<16)))
			}
		case roll < 60:
			ev.Kind = EvDeploy
			ev.Client = evs.Intn(sc.Clients)
			ev.N = 2 + evs.Intn(4)
		case roll < 72:
			ev.Kind = EvForm
			ev.Client = evs.Intn(sc.Clients)
			ev.L = 2 + evs.Intn(3)
		default:
			ev.Kind = EvSend
			ev.Client = evs.Intn(sc.Clients)
			ev.T = evs.Intn(8)
			ev.Size = 256 + evs.Intn(2048)
			ev.Hints = evs.Bool(0.5)
		}
	}
	return ev
}
