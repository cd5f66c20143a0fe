package main

import (
	"fmt"
	"time"

	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
)

// callStat is the wall time and call count of one protocol entry point.
type callStat struct {
	ns, calls int64
}

func (c *callStat) since(t0 time.Time) {
	c.ns += int64(time.Since(t0))
	c.calls++
}

// protoTimes splits the protocol layer's time across its entry points.
// The engine drives a run from one goroutine, so no synchronisation is
// needed.
type protoTimes struct {
	setup, senders, deliver, endRound callStat
}

// Optional capabilities the engine and api discover by type assertion. A
// wrapper must present exactly the inner protocol's set, or the engine
// would pick other sampling regimes for the traced run than for the
// untraced one.
const (
	capBulk = 1 << iota
	capKeyed
	capSpanner
	capIndex
	capTelemetry
)

type telemetered interface{ Telemetry() *core.Telemetry }

// capsOf returns the capability set of p.
func capsOf(p sim.Protocol) int {
	c := 0
	if _, ok := p.(sim.BulkProtocol); ok {
		c |= capBulk
	}
	if _, ok := p.(sim.KeyedProtocol); ok {
		c |= capKeyed
	}
	if _, ok := p.(sim.QuietSpanner); ok {
		c |= capSpanner
	}
	if _, ok := p.(sim.SenderIndex); ok {
		c |= capIndex
	}
	if _, ok := p.(telemetered); ok {
		c |= capTelemetry
	}
	return c
}

// timedProto forwards sim.Protocol, timing Setup, Send, Receive and
// EndRound.
type timedProto struct {
	p sim.Protocol
	t *protoTimes
}

func (w *timedProto) Name() string { return w.p.Name() }

func (w *timedProto) Setup(n int, r *rng.RNG) {
	t0 := time.Now()
	w.p.Setup(n, r)
	w.t.setup.since(t0)
}

func (w *timedProto) Send(a, round int) (channel.Bit, bool) {
	t0 := time.Now()
	bit, ok := w.p.Send(a, round)
	w.t.senders.since(t0)
	return bit, ok
}

func (w *timedProto) Receive(a int, bit channel.Bit, round int) {
	t0 := time.Now()
	w.p.Receive(a, bit, round)
	w.t.deliver.since(t0)
}

func (w *timedProto) EndRound(round int) {
	t0 := time.Now()
	w.p.EndRound(round)
	w.t.endRound.since(t0)
}

func (w *timedProto) Done(round int) bool               { return w.p.Done(round) }
func (w *timedProto) Opinion(a int) (channel.Bit, bool) { return w.p.Opinion(a) }

// timedBulk forwards the BulkProtocol extension, timing BulkSenders and
// BulkDeliver.
type timedBulk struct {
	b sim.BulkProtocol
	t *protoTimes
}

func (w *timedBulk) BulkEnabled() bool { return w.b.BulkEnabled() }

func (w *timedBulk) BulkSenders(round int) (zeros, ones []int32) {
	t0 := time.Now()
	zeros, ones = w.b.BulkSenders(round)
	w.t.senders.since(t0)
	return zeros, ones
}

func (w *timedBulk) BulkDeliver(receivers []int32, bits []channel.Bit, round int) {
	t0 := time.Now()
	w.b.BulkDeliver(receivers, bits, round)
	w.t.deliver.since(t0)
}

func (w *timedBulk) BulkAccumulate(round int) bool { return w.b.BulkAccumulate(round) }
func (w *timedBulk) BulkAccumulators() []uint64    { return w.b.BulkAccumulators() }

// timedIndex forwards sim.SenderIndex; its time counts as sender work.
type timedIndex struct {
	x sim.SenderIndex
	t *protoTimes
}

func (w *timedIndex) ActiveSenders(round int) int {
	t0 := time.Now()
	k := w.x.ActiveSenders(round)
	w.t.senders.since(t0)
	return k
}

type keyedFwd struct{ k sim.KeyedProtocol }

func (w keyedFwd) SetDrawKey(k rng.Key) { w.k.SetDrawKey(k) }

type spannerFwd struct{ s sim.QuietSpanner }

func (w spannerFwd) NextActive(g int) int { return w.s.NextActive(g) }

type telemetryFwd struct{ t telemetered }

func (w telemetryFwd) Telemetry() *core.Telemetry { return w.t.Telemetry() }

// The shapes of the repository's protocols: core broadcast and consensus,
// and the async offset and self-sync protocols.
type (
	coreShape struct {
		*timedProto
		*timedBulk
		*timedIndex
		keyedFwd
		telemetryFwd
	}
	asyncShape struct {
		*timedProto
		*timedBulk
		*timedIndex
		keyedFwd
		spannerFwd
	}
)

const (
	coreCaps  = capBulk | capKeyed | capIndex | capTelemetry
	asyncCaps = capBulk | capKeyed | capIndex | capSpanner
)

// wrap returns p behind a forwarder that bills each protocol entry point
// to t and presents exactly p's capability set. A protocol of another
// shape is an error rather than a silently narrower wrapper.
func wrap(p sim.Protocol, t *protoTimes) (sim.Protocol, error) {
	base := &timedProto{p: p, t: t}
	switch capsOf(p) {
	case 0:
		return base, nil
	case coreCaps:
		return coreShape{base, &timedBulk{p.(sim.BulkProtocol), t}, &timedIndex{p.(sim.SenderIndex), t},
			keyedFwd{p.(sim.KeyedProtocol)}, telemetryFwd{p.(telemetered)}}, nil
	case asyncCaps:
		return asyncShape{base, &timedBulk{p.(sim.BulkProtocol), t}, &timedIndex{p.(sim.SenderIndex), t},
			keyedFwd{p.(sim.KeyedProtocol)}, spannerFwd{p.(sim.QuietSpanner)}}, nil
	default:
		return nil, fmt.Errorf("perfbench: no forwarder for protocol %q with capability set %05b", p.Name(), capsOf(p))
	}
}
