// Package anonfile implements the paper's §4 sample application:
// anonymous file retrieval over TAP tunnels in a Pastry/PAST-style
// system.
//
// The initiator sends M = {hid_2, {hid_3, {fid, K_I, T_r}_K3}_K2}_K1 down
// a forward tunnel; the tail hop hands {fid, K_I, T_r} to the responder —
// the node storing the file for fid. The responder encrypts the file with
// a fresh symmetric key K_f, encrypts K_f under the initiator's temporary
// public key K_I, and sends {f}_Kf, {K_f}_KI back over the reply tunnel
// T_r, which terminates at a bid the initiator's node owns. The responder
// never learns who asked; the initiator never reveals itself to any hop;
// request and reply ride different tunnels so they are hard to correlate.
package anonfile

import (
	"bytes"
	"errors"
	"fmt"

	"tap/internal/core"
	"tap/internal/crypt"
	"tap/internal/id"
	"tap/internal/rng"
	"tap/internal/wire"
)

// Library is the file population of the network: each file lives on the
// node whose id is numerically closest to its fileid (its responder).
type Library struct {
	svc   *core.Service
	files map[id.ID][]byte
}

// NewLibrary creates an empty file population.
func NewLibrary(svc *core.Service) *Library {
	return &Library{svc: svc, files: make(map[id.ID][]byte)}
}

// Publish stores content under fid = H(name) and returns the fid.
func (l *Library) Publish(name string, content []byte) id.ID {
	fid := id.HashString(name)
	l.files[fid] = append([]byte(nil), content...)
	return fid
}

// PublishID stores content under an explicit fid — the upload reassembly
// path, where the fid arrives as the stream's destination id.
func (l *Library) PublishID(fid id.ID, content []byte) {
	l.files[fid] = append([]byte(nil), content...)
}

// Get returns the stored content for fid.
func (l *Library) Get(fid id.ID) ([]byte, bool) { return l.lookup(fid) }

// lookup returns the content for fid, as the responder node would from
// its local storage.
func (l *Library) lookup(fid id.ID) ([]byte, bool) {
	f, ok := l.files[fid]
	return f, ok
}

// Errors.
var (
	ErrNoSuchFile  = errors.New("anonfile: responder has no file for fid")
	ErrReplyLost   = errors.New("anonfile: reply did not reach the initiator")
	ErrBadRequest  = errors.New("anonfile: malformed request payload")
	ErrBadResponse = errors.New("anonfile: malformed response data")
)

// request is the exit payload {fid, K_I, T_r}.
type request struct {
	FID   id.ID
	KIPub []byte
	Reply []byte // encoded reply tunnel
}

func encodeRequest(r request) []byte {
	w := wire.NewWriter(id.Size + len(r.KIPub) + len(r.Reply) + 16)
	w.ID(r.FID)
	w.Blob(r.KIPub)
	w.Blob(r.Reply)
	return w.Bytes()
}

func decodeRequest(b []byte) (request, error) {
	rd := wire.NewReader(b)
	var r request
	r.FID = rd.ID()
	r.KIPub = append([]byte(nil), rd.Blob()...)
	r.Reply = append([]byte(nil), rd.Blob()...)
	if err := rd.Done(); err != nil {
		return request{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return r, nil
}

// response is the reply data: {f}_Kf alongside {K_f}_KI.
type response struct {
	SealedFile []byte
	SealedKey  []byte
}

func encodeResponse(r response) []byte {
	w := wire.NewWriter(len(r.SealedFile) + len(r.SealedKey) + 16)
	w.Blob(r.SealedFile)
	w.Blob(r.SealedKey)
	return w.Bytes()
}

func decodeResponse(b []byte) (response, error) {
	rd := wire.NewReader(b)
	var r response
	r.SealedFile = append([]byte(nil), rd.Blob()...)
	r.SealedKey = append([]byte(nil), rd.Blob()...)
	if err := rd.Done(); err != nil {
		return response{}, fmt.Errorf("%w: %v", ErrBadResponse, err)
	}
	return r, nil
}

// Result carries the retrieved file plus traversal statistics.
type Result struct {
	Content      []byte
	ForwardStats core.WalkStats
	ReplyStats   core.WalkStats
	Responder    id.ID
}

// Retrieve performs the full §4 exchange with the logical walker:
// initiator → forward tunnel → responder → reply tunnel → initiator. fwd
// and rep must be distinct tunnels owned by in. A tunnel whose hints were
// refreshed gets the §5 optimization in its direction.
func Retrieve(lib *Library, in *core.Initiator, fwd, rep *core.Tunnel, fid id.ID,
	stream *rng.Stream) (*Result, error) {

	// Initiator side: temporary keypair, bid, reply tunnel, request.
	kI, err := crypt.NewBoxKeyPair(stream)
	if err != nil {
		return nil, err
	}
	bid := in.NewBid()
	rt, err := core.BuildReplyHinted(rep, bid, stream)
	if err != nil {
		return nil, err
	}
	payload := encodeRequest(request{FID: fid, KIPub: kI.Public().Bytes(), Reply: rt.Encode()})
	env, err := core.BuildForwardHinted(fwd, fid, payload, stream)
	if err != nil {
		return nil, err
	}

	// Forward traversal: the exit payload lands on the responder.
	fres, err := in.Service().DeliverForward(in.Node().Ref().Addr, env)
	if err != nil {
		return nil, err
	}
	req, err := decodeRequest(fres.Payload)
	if err != nil {
		return nil, err
	}

	// Responder side: local lookup, encrypt, send back over T_r.
	content, ok := lib.lookup(req.FID)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchFile, req.FID.Short())
	}
	kF, err := crypt.NewKey(stream)
	if err != nil {
		return nil, err
	}
	sealedFile, err := crypt.NewSealer(kF).SealTo(nil, stream, content)
	if err != nil {
		return nil, err
	}
	kiPub, err := crypt.ParseBoxPublicKey(req.KIPub)
	if err != nil {
		return nil, err
	}
	sealedKey, err := crypt.BoxSeal(kiPub, stream, kF[:])
	if err != nil {
		return nil, err
	}
	rt2, err := core.DecodeReplyTunnel(req.Reply)
	if err != nil {
		return nil, err
	}
	rres, err := in.Service().DeliverReply(fres.DestNode.Addr, &core.ReplyEnvelope{
		Target: rt2.First, Hint: rt2.FirstHint, Onion: rt2.Onion,
		Data: encodeResponse(response{SealedFile: sealedFile, SealedKey: sealedKey}),
	})
	if err != nil {
		return nil, err
	}
	if rres.LandedNode.ID != in.Node().ID() || rres.Target != bid {
		return nil, ErrReplyLost
	}

	// Initiator side: unwrap K_f with the temporary private key, then the
	// file with K_f.
	resp, err := decodeResponse(rres.Data)
	if err != nil {
		return nil, err
	}
	kfBytes, err := kI.BoxOpen(resp.SealedKey)
	if err != nil {
		return nil, fmt.Errorf("anonfile: unwrapping K_f: %w", err)
	}
	var kf crypt.Key
	copy(kf[:], kfBytes)
	plain, err := crypt.NewSealer(kf).OpenTo(nil, resp.SealedFile)
	if err != nil {
		return nil, fmt.Errorf("anonfile: decrypting file: %w", err)
	}
	if !bytes.Equal(plain, content) {
		// Defensive: the simulation shares memory, so mismatch means a bug.
		return nil, fmt.Errorf("anonfile: decrypted content mismatch")
	}
	return &Result{
		Content:      plain,
		ForwardStats: fres.Stats,
		ReplyStats:   rres.Stats,
		Responder:    fres.DestNode.ID,
	}, nil
}

// --- windowed-stream upload --------------------------------------------------

// UploadServer reassembles windowed-stream uploads into a Library:
// anonymous publication, the §4 exchange run toward the network. Each
// incoming stream is addressed to the fileid it publishes; the stream
// layer delivers segments in order exactly once, and the completed file is
// stored when the FIN arrives.
type UploadServer struct {
	lib *Library
	// Stored counts completed uploads per fid — the exactly-once
	// observable: a correct run stores each upload exactly once no matter
	// how many segments were retransmitted or duplicated in flight.
	Stored map[id.ID]int
}

// ServeUploads installs upload reassembly on eng's incoming streams.
func ServeUploads(lib *Library, eng *core.NetEngine) *UploadServer {
	srv := &UploadServer{lib: lib, Stored: make(map[id.ID]int)}
	eng.OnStream = func(rs *core.RecvStream) {
		var buf []byte
		rs.OnData = func(seq uint64, data []byte) {
			buf = append(buf, data...)
		}
		rs.OnClose = func(rs *core.RecvStream) {
			fid := rs.Dest()
			srv.lib.PublishID(fid, buf)
			srv.Stored[fid]++
		}
	}
	return srv
}

// Upload streams content toward the responder for name's fid over the
// initiator's forward tunnel: every segment rides the tunnel as a sealed
// envelope, so the responder learns the file and the tunnel exit, never
// the initiator. Writes are pumped through the send window as
// acknowledgments free space; done fires with the stream outcome once the
// FIN is acknowledged. Returns the fid and the stream for inspection.
func Upload(eng *core.NetEngine, in *core.Initiator, tun *core.Tunnel,
	name string, content []byte, cfg core.StreamConfig, done func(ok bool)) (id.ID, *core.Stream) {

	fid := id.HashString(name)
	s := eng.OpenTunnelStream(in.Node().Ref().Addr, tun, fid, cfg)
	if done != nil {
		s.OnComplete = func(o core.Outcome) { done(o.Delivered) }
	}
	s.WriteAll(content)
	return fid, s
}
