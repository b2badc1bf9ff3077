package main

import (
	"reflect"

	"accdb/internal/server/wire"
	"accdb/internal/tpcc"
)

// probeWire prices the wire layer on the record the standard mix sends most:
// one new-order request and its response (the work area comes back in the
// result), framed and decoded, through the binary codec tpcc registers. This
// file is the only one that calls into internal/server/wire.
func (p *prober) probeWire() error {
	codec := wire.CodecFor("new_order")
	if codec == nil {
		return failf("wire: no binary codec registered for new_order")
	}
	gen := tpcc.NewRemoteWorkload(nil, tpcc.DefaultWorkloadConfig(tpcc.DefaultScale()))
	args := gen.NewOrderArgs(p.rng(4))
	if !codec.Handles(args) {
		return failf("wire: the new_order codec does not handle %T", args)
	}

	record := codec.Encode(nil, args)
	req := wire.Request{ID: 1, Trace: 1, Op: wire.OpRun, Fmt: wire.FmtBinary, Name: codec.NameBytes(), Args: record}
	resp := wire.Response{ID: 1, Status: wire.StatusOK, Fmt: wire.FmtBinary, Result: record}
	reqFrame, err := wire.AppendRequest(nil, &req)
	if err != nil {
		return failf("wire: %w", err)
	}
	respFrame, err := wire.AppendResponse(nil, &resp)
	if err != nil {
		return failf("wire: %w", err)
	}
	const prefix = 4 // a frame's length prefix; Decode* take the payload after it

	// The outputs must be right before they are worth timing.
	var gotReq wire.Request
	if err := wire.DecodeRequest(reqFrame[prefix:], &gotReq); err != nil {
		return failf("wire: %w", err)
	}
	back := codec.New()
	if err := codec.Decode(gotReq.Args, back); err != nil {
		return failf("wire: %w", err)
	}
	if string(gotReq.Name) != "new_order" || !reflect.DeepEqual(args, back) {
		return failf("wire: a new_order request did not survive the round trip")
	}

	// A count, not a time: the same seed must give the same bytes.
	p.out["wire.frame_bytes_new_order"] = float64(len(reqFrame))

	buf := make([]byte, 0, 2*len(reqFrame))
	p.ns("wire", "wire.append_request_ns", 100, func(int) { buf, _ = wire.AppendRequest(buf[:0], &req) })
	p.ns("wire", "wire.decode_request_ns", 100, func(int) { _ = wire.DecodeRequest(reqFrame[prefix:], &gotReq) })
	p.ns("wire", "wire.append_response_ns", 100, func(int) { buf, _ = wire.AppendResponse(buf[:0], &resp) })
	var gotResp wire.Response
	p.ns("wire", "wire.decode_response_ns", 100, func(int) { _ = wire.DecodeResponse(respFrame[prefix:], &gotResp) })
	p.ns("wire", "wire.codec_encode_ns", 100, func(int) { buf = codec.Encode(buf[:0], args) })
	p.ns("wire", "wire.codec_decode_ns", 100, func(int) { _ = codec.Decode(record, back) })
	return nil
}
