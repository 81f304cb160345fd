// Package experiments regenerates every figure of the paper's evaluation
// (§7). Each FigN function takes a parameter struct whose zero value is
// filled with the paper's settings scaled to the caller's request, runs
// the Monte-Carlo trials and returns a trace.Table whose rows are the
// figure's x axis and whose columns are its series.
//
// Every sweep goes through one runner, runTrials, over a grid of points
// (the sweep's x values, or a flattening of several axes) by trials. Cells
// run in parallel across worker goroutines with one deterministic RNG
// stream per cell, record into per-cell slots, and are folded into the
// table in point-major order, so a table is bit-identical for any
// GOMAXPROCS.
//
// cmd/tapsim prints these tables; bench_test.go wraps each in a testing.B
// benchmark; EXPERIMENTS.md records the measured shapes against the
// paper's.
package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"

	"tap/internal/adversary"
	"tap/internal/core"
	"tap/internal/past"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/simnet"
	"tap/internal/tha"
	"tap/internal/trace"
)

// World is one fully wired TAP universe: overlay, storage, anchors,
// service, adversary.
type World struct {
	Root *rng.Stream
	OV   *pastry.Overlay
	Mgr  *past.Manager
	Dir  *tha.Directory
	Svc  *core.Service
	Col  *adversary.Collusion
}

// BuildWorld constructs a world of n nodes with replication factor k,
// rooted at stream.
func BuildWorld(n, k int, stream *rng.Stream) (*World, error) {
	return BuildWorldIn(nil, n, k, stream)
}

// BuildWorldIn is BuildWorld with the overlay built inside mem's arenas
// (nil mem allocates fresh ones). Passing a worker's scratch to every
// trial makes overlay construction — the allocation bulk of a trial —
// reuse one trial's memory for the next. The previous world built in mem
// dies; a world must therefore never outlive its trial function.
func BuildWorldIn(mem *pastry.Scratch, n, k int, stream *rng.Stream) (*World, error) {
	ov, err := pastry.BuildInto(mem, pastry.DefaultConfig(), n, stream.Split("overlay"))
	if err != nil {
		return nil, err
	}
	mgr := past.NewManager(ov, k)
	dir := tha.NewDirectory(ov, mgr)
	svc := core.NewService(ov, dir, stream.Split("svc"))
	col := adversary.NewCollusion(ov, mgr)
	return &World{Root: stream, OV: ov, Mgr: mgr, Dir: dir, Svc: svc, Col: col}, nil
}

// NewEngine puts the world on a simulated network of its own — a fresh
// kernel, the default link model seeded with linkSeed — and attaches a
// networked engine to every node.
func (w *World) NewEngine(linkSeed uint64) (*simnet.Kernel, *simnet.Network, *core.NetEngine) {
	kernel := simnet.NewKernel()
	net := simnet.NewNetwork(kernel, simnet.DefaultLinkModel(linkSeed), w.OV.NumAddrs())
	return kernel, net, core.NewNetEngine(w.Svc, net)
}

// TunnelSet is a population of tunnels with their owners, the workload
// unit of Figures 2–5 ("we assume the system has 5,000 tunnels").
type TunnelSet struct {
	Initiators []*core.Initiator
	Tunnels    []*core.Tunnel
}

// DeployTunnels creates `count` tunnels of the given length, each owned by
// a uniformly random live node that deploys exactly the anchors it needs.
func DeployTunnels(w *World, count, length int, stream *rng.Stream) (*TunnelSet, error) {
	if count < 0 {
		return nil, fmt.Errorf("experiments: cannot deploy %d tunnels", count)
	}
	ts := &TunnelSet{
		Initiators: make([]*core.Initiator, 0, count),
		Tunnels:    make([]*core.Tunnel, 0, count),
	}
	for i := 0; i < count; i++ {
		node := w.OV.RandomLive(stream)
		in, tun, err := ownTunnel(w, node, length, stream.SplitN("initiator", i))
		if err != nil {
			return nil, fmt.Errorf("experiments: tunnel %d: %w", i, err)
		}
		ts.Initiators = append(ts.Initiators, in)
		ts.Tunnels = append(ts.Tunnels, tun)
	}
	return ts, nil
}

// ownTunnel gives node one tunnel of length l: a fresh initiator, its
// state drawn from stream, deploys exactly the l anchors it needs and
// forms the tunnel from them.
func ownTunnel(w *World, node *pastry.Node, l int, stream *rng.Stream) (*core.Initiator, *core.Tunnel, error) {
	in, err := core.NewInitiator(w.Svc, node, stream)
	if err != nil {
		return nil, nil, err
	}
	if err := in.DeployDirect(l); err != nil {
		return nil, nil, fmt.Errorf("deploying: %w", err)
	}
	tun, err := in.FormTunnel(l)
	if err != nil {
		return nil, nil, fmt.Errorf("forming: %w", err)
	}
	return in, tun, nil
}

// TunnelFunctional reports whether a TAP tunnel can still carry traffic:
// every hop anchor retains a live replica. When fullWalk is set, the check
// additionally executes a complete end-to-end delivery with real
// cryptography from the tunnel owner's node (falling back to any live node
// if the owner itself died).
func TunnelFunctional(w *World, in *core.Initiator, t *core.Tunnel, fullWalk bool, stream *rng.Stream) bool {
	for _, h := range t.Hops {
		if !w.Dir.Available(h.HopID) {
			return false
		}
	}
	if !fullWalk {
		return true
	}
	src := in.Node()
	if !src.Alive() {
		src = w.OV.RandomLive(stream)
	}
	env, err := core.BuildForward(t, nil, w.OV.RandomLive(stream).ID(), []byte("probe"), stream)
	if err != nil {
		return false
	}
	res, err := w.Svc.DeliverForward(src.Ref().Addr, env)
	return err == nil && string(res.Payload) == "probe"
}

// --- parallel trial execution ----------------------------------------------

// addFn records one sample for (x, series) on behalf of the running trial.
type addFn func(x float64, series string, v float64)

// runTrials runs fn(pt, trial, mem, add) for every cell of the points ×
// trials grid across min(GOMAXPROCS, cells) workers, then folds what the
// cells recorded into tbl. A cell's index is pt·trials + trial (point-major):
// a sweep of several axes flattens them into pt, and a sweep that varies
// nothing passes points = 1.
//
// Each worker owns one pastry.Scratch, handed to every cell it runs, so
// successive cells rebuild their overlay in the same memory (BuildWorldIn);
// mem is only valid for the duration of fn. Each cell's add appends to that
// cell's own slot and nothing is shared between workers. After all cells
// finish the slots are folded into tbl in index order — trace.Accum is a
// running mean, order-dependent in the last ulp — so a table is bit-identical
// for any worker count. The error returned is that of the lowest failing
// index. Each fn must derive all its randomness from (pt, trial).
func runTrials(tbl *trace.Table, points, trials int, fn func(pt, trial int, mem *pastry.Scratch, add addFn) error) error {
	type sample struct {
		x      float64
		series string
		v      float64
	}
	n := points * trials
	slots := make([][]sample, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mem := pastry.NewScratch()
			for i := range idx {
				errs[i] = fn(i/trials, i%trials, mem, func(x float64, series string, v float64) {
					slots[i] = append(slots[i], sample{x, series, v})
				})
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, slot := range slots {
		if errs[i] != nil {
			return errs[i]
		}
		for _, s := range slot {
			tbl.Add(s.x, s.series, s.v)
		}
	}
	return nil
}

// refuseNegative reports the first negative count among experiment exp's
// parameters p, a struct whose count fields are int fields tagged
// `count:""`. Zero picks a count's default; a negative count is a
// mistake, not less work. A negative tunnel length that DeployTunnels
// would deploy is refused there, by core, so such Length fields go
// untagged.
func refuseNegative(exp string, p any) error {
	v := reflect.ValueOf(p)
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if _, ok := f.Tag.Lookup("count"); ok && v.Field(i).Int() < 0 {
			return fmt.Errorf("experiments: %s: %s is %d, must not be negative", exp, f.Name, v.Field(i).Int())
		}
	}
	return nil
}
