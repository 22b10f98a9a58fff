package p2p

import (
	"time"

	"typecoin/internal/banscore"
)

// Policy holds the four defense settings an operator sets (typecoind's
// -banthreshold, -banduration, -maxpeers and -syncwindow). The zero
// value of any field selects its default; DefaultPolicy returns the
// fully populated set. Every other defense value is one constant below.
type Policy struct {
	// BanThreshold is the decayed misbehavior score at which a peer's
	// address is banned.
	BanThreshold int32
	// BanDuration is how long a triggered ban lasts.
	BanDuration time.Duration
	// MaxInbound caps the inbound peers.
	MaxInbound int
	// SyncWindow is the per-peer sliding window of the headers-first
	// download manager: how many block bodies may be in flight to one
	// peer at a time.
	SyncWindow int
}

// Misbehavior penalties. Honest peers on faulty links trip some of
// these paths — a corrupted frame fails its checksum, a duplicated
// frame re-delivers a block that was already requested, a block that
// lost a mining race arrives as a duplicate — so wire-level framing
// noise is scored far below application-level garbage, deliveries
// within requestMemory are never "unsolicited", and scores decay with
// banscore's half-life. Only behavior an honest implementation cannot
// produce (undecodable payloads inside a well-formed frame, inventory
// batches beyond the protocol's own send limit, repeated stalls on
// advertised data) scores high.
const (
	// penaltyFrame scores a wire-level framing failure (bad magic, bad
	// checksum, oversized frame): lossy links corrupt frames of honest
	// peers.
	penaltyFrame int32 = 2
	// penaltyMalformed scores an undecodable payload inside a valid
	// frame — something checksummed end to end, so only the sender can
	// produce it.
	penaltyMalformed int32 = 20
	// penaltyInvalidBlock scores a block or header that fails
	// validation.
	penaltyInvalidBlock int32 = 50
	// penaltyInvalidTx scores a transaction that fails validation for a
	// reason an honest relay cannot produce (sanity, script failure).
	penaltyInvalidTx int32 = 20
	// penaltyUnsolicited scores delivery of a block nobody asked for
	// that did not advance the chain (duplicates, stale forks).
	penaltyUnsolicited int32 = 10
	// penaltyOversized scores an inv, getdata or notfound batch beyond
	// MaxInvEntries.
	penaltyOversized int32 = 20
	// PenaltyStall scores a sweep that expired undelivered requests of
	// a peer that delivered nothing for StallTimeout.
	PenaltyStall int32 = 15
	// penaltyRateLimit scores a message dropped by the rate limiter.
	penaltyRateLimit int32 = 10
	// penaltyUnknownCmd scores an unrecognized command (tolerated for
	// extensibility, but not free).
	penaltyUnknownCmd int32 = 1
	// PenaltyOrphan scores a requested block answered with a body whose
	// header and parent are unknown, if its header is still unknown when
	// the request expires or the peer drops.
	PenaltyOrphan int32 = 15
)

// Per-peer resource bounds.
//
// Every getdata a node sends has one record, in the peer's request
// table, and one expiry: a once-a-second sweep on the liveness clock
// ends a record still unanswered, or owed, after StallTimeout of
// liveness time the sweep saw, and a delivered one after requestMemory.
// Ending it frees the download slot; it is charged as a stall only if
// the peer delivered nothing in that window, and an owed block
// (answered with a body the chain dropped) whose header is still
// unknown is charged PenaltyOrphan then, or when the peer drops,
// whichever comes first. A notfound answers the transaction and
// overlay records it names, uncharged, as a delivery would.
const (
	// msgRate/msgBurst bound messages per second from one peer.
	msgRate  = 500
	msgBurst = 4000
	// byteRate/byteBurst bound bytes per second from one peer.
	byteRate  = 4 << 20
	byteBurst = 16 << 20

	// MaxInvEntries caps inv, getdata and notfound batch sizes.
	MaxInvEntries = 1000
	// maxInflight caps a peer's pending getdata requests.
	maxInflight = 1024
	// StallTimeout is how long a request may stay undelivered, or a
	// dropped block owed, before the sweep ends it; an undelivered one
	// counts as a stall if the peer delivered nothing meanwhile. The
	// sweep also probes every peer every StallTimeout/2 and closes a
	// peer that sent no frame for 2×StallTimeout.
	StallTimeout = 30 * time.Second
	// requestMemory is how long a delivered request is remembered, so
	// link-duplicated re-deliveries are not scored as unsolicited.
	requestMemory = 2 * time.Minute

	// maxOutbound caps the dialed peers.
	maxOutbound = 16
)

// DefaultPolicy returns the production defaults.
func DefaultPolicy() Policy {
	return Policy{
		BanThreshold: banscore.DefaultThreshold,
		BanDuration:  banscore.DefaultBanDuration,
		MaxInbound:   64,
		SyncWindow:   16,
	}
}

// withDefaults fills zero fields from DefaultPolicy.
func (p Policy) withDefaults() Policy {
	d := DefaultPolicy()
	if p.BanThreshold <= 0 {
		p.BanThreshold = d.BanThreshold
	}
	if p.BanDuration <= 0 {
		p.BanDuration = d.BanDuration
	}
	if p.MaxInbound <= 0 {
		p.MaxInbound = d.MaxInbound
	}
	if p.SyncWindow <= 0 {
		p.SyncWindow = d.SyncWindow
	}
	return p
}
