package main

import (
	"encoding/json"
	"testing"

	"breathe/internal/api"
	"breathe/internal/rng"
	"breathe/internal/sim"
)

var apiProtocols = []string{api.ProtoBroadcast, api.ProtoConsensus, api.ProtoAsyncOffsets, api.ProtoAsyncSelfSync}

// respond runs p on a fresh keyed engine and returns the response bytes.
func respond(t *testing.T, req api.RunRequest, run *api.Run, p sim.Protocol) []byte {
	t.Helper()
	eng, err := sim.NewEngine(run.Config)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(api.NewResponse(req, eng.Run(p), run.Crashed, p))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestWrapKeepsCapabilitiesAndResults(t *testing.T) {
	for _, proto := range apiProtocols {
		req := api.RunRequest{Protocol: proto, N: 4096, Eps: 0.3, Seed: 5, Schedule: api.ScheduleKeyed}
		run, err := req.Build()
		if err != nil {
			t.Fatal(err)
		}
		inner := run.NewProtocol()
		var times protoTimes
		w, err := wrap(inner, &times)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if got, want := capsOf(w), capsOf(inner); got != want {
			t.Errorf("%s: wrapper capabilities %05b, inner %05b", proto, got, want)
		}
		if capsOf(inner)&capBulk == 0 {
			t.Errorf("%s: inner protocol is not bulk-capable; the paper workloads would time another kernel", proto)
		}
		plain := respond(t, req, run, run.NewProtocol())
		if traced := respond(t, req, run, w); string(traced) != string(plain) {
			t.Errorf("%s: wrapped run differs:\n%s\n%s", proto, traced, plain)
		}
		if times.setup.calls != 1 || times.senders.calls == 0 || times.endRound.calls == 0 {
			t.Errorf("%s: protocol calls not timed: %+v", proto, times)
		}
	}
}

// keyedOnly is a protocol shape no forwarder covers.
type keyedOnly struct{ sim.Protocol }

func (keyedOnly) SetDrawKey(rng.Key) {}

func TestWrapRefusesUnknownShape(t *testing.T) {
	req := api.RunRequest{N: 64, Schedule: api.ScheduleKeyed}
	run, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrap(keyedOnly{run.NewProtocol()}, &protoTimes{}); err == nil {
		t.Error("wrap accepted a protocol whose capability set it cannot reproduce")
	}
}
