package core

import (
	"context"

	"accdb/internal/spi"
)

// Multi-shot support (DESIGN.md §16). A cross-partition transaction runs as
// a sequence of ordinary local transactions — *shots* — one per partition,
// coordinated by accdb/internal/partition. The engine itself stays ignorant
// of the protocol; its only contribution is the stamp below: a shot's begin
// record carries the global transaction id and shot index, so recovery in
// each partition can resolve every shot's local fate (committed, aborted,
// compensated) and the coordinator can complete or undo the global
// transaction from the per-partition logs alone.

// ShotTag marks the next transaction run under the context as shot Shot of
// the global transaction Group identifies. Shot 0 is the home
// (originating-partition) transaction, positive indices are remote shots in
// plan order, and a negative index -k is the compensating undo of shot k.
// The group rides on every attempt's spi.Txn, which is how the lock service
// follows a deadlock cycle from one partition's lock table into another's.
type ShotTag struct {
	Group *spi.Group
	Shot  int32
}

type shotTagKey struct{}

// WithShotTag returns a context that stamps transactions run under it with
// the given shot identity. The stamp applies to decomposed (ACC) runs;
// baseline mode has no multi-shot protocol.
func WithShotTag(ctx context.Context, tag ShotTag) context.Context {
	return context.WithValue(ctx, shotTagKey{}, tag)
}

// shotTagFrom extracts the shot stamp; without one its Group is nil.
func shotTagFrom(ctx context.Context) ShotTag {
	tag, _ := ctx.Value(shotTagKey{}).(ShotTag)
	return tag
}
