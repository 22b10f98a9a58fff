package p2p

// P2P observability: per-peer traffic counters (labeled by the same
// host key misbehavior is scored under, so cardinality stays bounded),
// defense counters (bans, penalties, rate limiting, refusals), peer
// gauges, and peer lifecycle events. All collectors are nil until
// SetTelemetry is called (before Listen/Dial); every telemetry type
// no-ops on nil.

import (
	"strconv"

	"typecoin/internal/chainhash"
	"typecoin/internal/telemetry"
	"typecoin/internal/wire"
)

type nodeTelemetry struct {
	tracer *telemetry.Tracer
	spans  *telemetry.SpanStore

	recvMsgs  *telemetry.CounterVec // by peer host
	recvBytes *telemetry.CounterVec
	sentMsgs  *telemetry.CounterVec
	sentBytes *telemetry.CounterVec

	connects    *telemetry.CounterVec // by direction
	disconnects *telemetry.Counter
	refused     *telemetry.CounterVec // by reason
	redials     *telemetry.Counter

	bans        *telemetry.Counter
	misbehavior *telemetry.Counter // points charged
	rateLimited *telemetry.Counter
	stalls      *telemetry.Counter
	unknownCmds *telemetry.Counter
}

// SetTelemetry registers the node's metrics on reg and routes peer
// lifecycle events to tr. Call once, before Listen or Dial; either
// argument may be nil.
func (n *Node) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	n.tel = nodeTelemetry{
		tracer: tr,

		recvMsgs:  reg.CounterVec("p2p_recv_messages_total", "Messages received, by peer host.", "peer"),
		recvBytes: reg.CounterVec("p2p_recv_bytes_total", "Bytes received (framed), by peer host.", "peer"),
		sentMsgs:  reg.CounterVec("p2p_sent_messages_total", "Messages sent, by peer host.", "peer"),
		sentBytes: reg.CounterVec("p2p_sent_bytes_total", "Bytes sent (framed), by peer host.", "peer"),

		connects:    reg.CounterVec("p2p_connections_total", "Peer connections established, by direction.", "direction"),
		disconnects: reg.Counter("p2p_disconnects_total", "Peer connections that ended."),
		refused:     reg.CounterVec("p2p_refused_total", "Connections refused at the choke point, by reason.", "reason"),
		redials:     reg.Counter("p2p_redials_total", "Redial attempts for dropped outbound peers."),

		bans:        reg.Counter("p2p_bans_total", "Addresses banned for crossing the misbehavior threshold."),
		misbehavior: reg.Counter("p2p_misbehavior_points_total", "Misbehavior points charged across all peers."),
		rateLimited: reg.Counter("p2p_rate_limited_total", "Received frames dropped by per-peer rate limiting."),
		stalls:      reg.Counter("p2p_stalls_total", "Sync stalls charged (advertised data never served)."),
		unknownCmds: reg.Counter("p2p_unknown_commands_total", "Messages with unknown protocol commands."),
	}
	reg.GaugeFunc("p2p_peers", "Live peer connections.", func() float64 {
		return float64(n.PeerCount())
	})
	reg.GaugeFunc("p2p_peers_inbound", "Live inbound peer connections.", func() float64 {
		in, _ := n.PeerCounts()
		return float64(in)
	})
	reg.GaugeFunc("p2p_peers_outbound", "Live outbound peer connections.", func() float64 {
		_, out := n.PeerCounts()
		return float64(out)
	})
	reg.GaugeFunc("p2p_banned_addrs", "Addresses currently banned.", func() float64 {
		return float64(len(n.keeper().Banned()))
	})
	reg.GaugeFunc("p2p_inflight_bodies", "Block bodies requested and not yet delivered, across all peers.", func() float64 {
		return float64(n.SyncStatus().InflightBodies)
	})
	reg.GaugeFunc("p2p_download_peers", "Peers currently holding at least one in-flight body request.", func() float64 {
		return float64(n.SyncStatus().DownloadPeers)
	})
	reg.LabeledGaugeFunc("p2p_peer_inflight_bodies", "In-flight body requests per peer id.", "peer", func() []telemetry.LabeledValue {
		counts := n.inflightPerPeer()
		out := make([]telemetry.LabeledValue, 0, len(counts))
		for id, c := range counts {
			out = append(out, telemetry.LabeledValue{Label: strconv.Itoa(id), Value: float64(c)})
		}
		return out
	})
}

// Leveled logging helpers over the optional component logger. A nil
// logger (tests, netsim nodes) disables output entirely.

func (n *Node) logDebug(msg string, args ...any) {
	if n.logger != nil {
		n.logger.Debug(msg, args...)
	}
}

func (n *Node) logInfo(msg string, args ...any) {
	if n.logger != nil {
		n.logger.Info(msg, args...)
	}
}

func (n *Node) logWarn(msg string, args ...any) {
	if n.logger != nil {
		n.logger.Warn(msg, args...)
	}
}

// SetSpans routes commitment-latency span stages to s: local submission
// creates a transaction's span, serving a subject marks the relayed
// stage and emits a wire trace context, and received contexts land as
// relay hops. Call once, before Listen or Dial; s may be nil (the
// default, spans disabled).
func (n *Node) SetSpans(s *telemetry.SpanStore) {
	n.tel.spans = s
}

// sendTraceContext follows a just-served tx or block with its compact
// trace context, letting the receiver attribute the relay hop to the
// origin span. No-op unless the local span store tracks the subject;
// relay chains deeper than wire.MaxTraceHops stop propagating. The send
// itself is advisory — a failure only means the peer misses a hop
// record, so errors are swallowed.
func (n *Node) sendTraceContext(p *Peer, kind telemetry.SpanKind, subject chainhash.Hash) {
	sp := n.tel.spans
	if sp == nil {
		return
	}
	origin, originAt, hops, ok := sp.WireInfo(subject)
	if !ok || hops+1 > wire.MaxTraceHops {
		return
	}
	sp.Observe(kind, subject, telemetry.StageRelayed)
	tc := &wire.TraceContext{
		Kind:     byte(kind),
		Subject:  subject,
		Origin:   origin,
		Hops:     uint8(hops + 1),
		OriginAt: originAt,
		SentAt:   n.clk.Now(),
	}
	_ = p.send(wire.CmdTrace, tc.Encode())
}
