package p2p

// MaxInflight exposes the cap on a peer's pending getdata requests to
// the external tests.
const MaxInflight = maxInflight
