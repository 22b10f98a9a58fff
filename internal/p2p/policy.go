package p2p

import "time"

// Policy bundles the node's adversarial-defense knobs: misbehavior
// penalties and the ban lifecycle, per-peer rate limits, in-flight
// request bounds, and peer-count caps. The zero value of any field
// selects the corresponding default; DefaultPolicy returns the fully
// populated set.
//
// Every getdata a node sends has one record, in the peer's request
// table, and one expiry: a once-a-second sweep on the liveness clock
// ends a record still unanswered, or owed, after StallTimeout of
// liveness time the sweep saw, and a delivered one after RequestMemory.
// Ending it frees the download slot; it is charged as a stall only if
// the peer delivered nothing in that window, and an owed block
// (answered with a body the chain dropped) whose header is still
// unknown is charged PenaltyOrphan then, or when the peer drops,
// whichever comes first. A notfound answers the transaction and
// overlay records it names, uncharged, as a delivery would.
//
// Penalty calibration matters as much as the mechanism. Honest peers on
// faulty links trip some of these paths — a corrupted frame fails its
// checksum, a duplicated frame re-delivers a block that was already
// requested, a block that lost a mining race arrives as a duplicate —
// so wire-level framing noise is scored far below application-level
// garbage, deliveries within the request grace window are never
// "unsolicited", and scores decay with a half-life. Only behavior an
// honest implementation cannot produce (undecodable payloads inside a
// well-formed frame, inventory batches beyond the protocol's own send
// limit, repeated stalls on advertised data) scores high.
type Policy struct {
	// BanThreshold is the decayed misbehavior score at which a peer's
	// address is banned.
	BanThreshold int32
	// BanDuration is how long a triggered ban lasts.
	BanDuration time.Duration
	// ScoreHalfLife is the misbehavior score decay half-life.
	ScoreHalfLife time.Duration

	// PenaltyFrame scores a wire-level framing failure (bad magic, bad
	// checksum, oversized frame). Kept low: lossy links corrupt frames
	// of honest peers.
	PenaltyFrame int32
	// PenaltyMalformed scores an undecodable payload inside a valid
	// frame — something checksummed end-to-end, so only the sender can
	// produce it.
	PenaltyMalformed int32
	// PenaltyInvalidBlock scores a block that fails validation.
	PenaltyInvalidBlock int32
	// PenaltyInvalidTx scores a transaction that fails validation for a
	// reason an honest relay cannot produce (sanity, script failure).
	PenaltyInvalidTx int32
	// PenaltyUnsolicited scores delivery of a block nobody asked for
	// that did not advance the chain (duplicates, stale forks).
	PenaltyUnsolicited int32
	// PenaltyOversized scores an inv, getdata or notfound batch beyond
	// MaxInvEntries.
	PenaltyOversized int32
	// PenaltyStall scores a sweep that expired undelivered requests of
	// a peer that delivered nothing for StallTimeout.
	PenaltyStall int32
	// PenaltyRateLimit scores a message dropped by the rate limiter.
	PenaltyRateLimit int32
	// PenaltyUnknownCmd scores an unrecognized command (tolerated for
	// extensibility, but not free).
	PenaltyUnknownCmd int32
	// PenaltyOrphan scores a requested block answered with a body whose
	// header and parent are unknown, if its header is still unknown when
	// the request expires or the peer drops.
	PenaltyOrphan int32

	// MsgRate/MsgBurst bound messages per second from one peer.
	MsgRate  float64
	MsgBurst float64
	// ByteRate/ByteBurst bound bytes per second from one peer.
	ByteRate  float64
	ByteBurst float64

	// MaxInvEntries caps inv, getdata and notfound batch sizes.
	MaxInvEntries int
	// MaxInflight caps tracked outstanding getdata requests per peer.
	MaxInflight int
	// SyncWindow is the per-peer sliding window of the headers-first
	// download manager: how many block bodies may be in flight to one
	// peer at a time.
	SyncWindow int
	// StallTimeout is how long a request may stay undelivered, or a
	// dropped block owed, before the sweep ends it; an undelivered one
	// counts as a stall if the peer delivered nothing meanwhile. The
	// sweep also probes every peer every StallTimeout/2 and closes a
	// peer that sent no frame for 2×StallTimeout.
	StallTimeout time.Duration
	// RequestMemory is how long a delivered request is remembered, so
	// link-duplicated re-deliveries are not scored as unsolicited.
	RequestMemory time.Duration

	// MaxInbound / MaxOutbound cap the peer set.
	MaxInbound  int
	MaxOutbound int
}

// DefaultPolicy returns the production defaults.
func DefaultPolicy() Policy {
	return Policy{
		BanThreshold:  100,
		BanDuration:   time.Hour,
		ScoreHalfLife: 10 * time.Minute,

		PenaltyFrame:        2,
		PenaltyMalformed:    20,
		PenaltyInvalidBlock: 50,
		PenaltyInvalidTx:    20,
		PenaltyUnsolicited:  10,
		PenaltyOversized:    20,
		PenaltyStall:        15,
		PenaltyRateLimit:    10,
		PenaltyUnknownCmd:   1,
		PenaltyOrphan:       15,

		MsgRate:   500,
		MsgBurst:  4000,
		ByteRate:  4 << 20,
		ByteBurst: 16 << 20,

		MaxInvEntries: 1000,
		MaxInflight:   1024,
		SyncWindow:    16,
		StallTimeout:  30 * time.Second,
		RequestMemory: 2 * time.Minute,

		MaxInbound:  64,
		MaxOutbound: 16,
	}
}

// withDefaults fills zero fields from DefaultPolicy, so callers can
// override only what a scenario cares about.
func (p Policy) withDefaults() Policy {
	d := DefaultPolicy()
	if p.BanThreshold <= 0 {
		p.BanThreshold = d.BanThreshold
	}
	if p.BanDuration <= 0 {
		p.BanDuration = d.BanDuration
	}
	if p.ScoreHalfLife <= 0 {
		p.ScoreHalfLife = d.ScoreHalfLife
	}
	if p.PenaltyFrame <= 0 {
		p.PenaltyFrame = d.PenaltyFrame
	}
	if p.PenaltyMalformed <= 0 {
		p.PenaltyMalformed = d.PenaltyMalformed
	}
	if p.PenaltyInvalidBlock <= 0 {
		p.PenaltyInvalidBlock = d.PenaltyInvalidBlock
	}
	if p.PenaltyInvalidTx <= 0 {
		p.PenaltyInvalidTx = d.PenaltyInvalidTx
	}
	if p.PenaltyUnsolicited <= 0 {
		p.PenaltyUnsolicited = d.PenaltyUnsolicited
	}
	if p.PenaltyOversized <= 0 {
		p.PenaltyOversized = d.PenaltyOversized
	}
	if p.PenaltyStall <= 0 {
		p.PenaltyStall = d.PenaltyStall
	}
	if p.PenaltyRateLimit <= 0 {
		p.PenaltyRateLimit = d.PenaltyRateLimit
	}
	if p.PenaltyUnknownCmd <= 0 {
		p.PenaltyUnknownCmd = d.PenaltyUnknownCmd
	}
	if p.PenaltyOrphan <= 0 {
		p.PenaltyOrphan = d.PenaltyOrphan
	}
	if p.MsgRate <= 0 {
		p.MsgRate = d.MsgRate
	}
	if p.MsgBurst <= 0 {
		p.MsgBurst = d.MsgBurst
	}
	if p.ByteRate <= 0 {
		p.ByteRate = d.ByteRate
	}
	if p.ByteBurst <= 0 {
		p.ByteBurst = d.ByteBurst
	}
	if p.MaxInvEntries <= 0 {
		p.MaxInvEntries = d.MaxInvEntries
	}
	if p.MaxInflight <= 0 {
		p.MaxInflight = d.MaxInflight
	}
	if p.SyncWindow <= 0 {
		p.SyncWindow = d.SyncWindow
	}
	if p.StallTimeout <= 0 {
		p.StallTimeout = d.StallTimeout
	}
	if p.RequestMemory <= 0 {
		p.RequestMemory = d.RequestMemory
	}
	if p.MaxInbound <= 0 {
		p.MaxInbound = d.MaxInbound
	}
	if p.MaxOutbound <= 0 {
		p.MaxOutbound = d.MaxOutbound
	}
	return p
}
