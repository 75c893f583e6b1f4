package main

import (
	"context"
	"errors"

	aas "repro"
)

// errKind is the stable classification of a failed call. It is decided by
// errors.Is against the public sentinels only, never by an error's text.
type errKind int

const (
	kindOverloaded errKind = iota
	kindDeadline
	kindCanceled
	kindNoSuchComponent
	kindStreamUnsupported
	kindStreamClosed
	kindUnstreamable
	kindOther
	numKinds
)

var kindNames = [numKinds]string{
	"overloaded", "deadline", "canceled", "no_such_component",
	"stream_unsupported", "stream_closed", "unstreamable_op", "other",
}

var kindSentinels = [...]struct {
	kind errKind
	err  error
}{
	{kindOverloaded, aas.ErrOverloaded},
	{kindDeadline, context.DeadlineExceeded},
	{kindCanceled, context.Canceled},
	{kindNoSuchComponent, aas.ErrNoSuchComponent},
	{kindStreamUnsupported, aas.ErrStreamUnsupported},
	{kindStreamClosed, aas.ErrStreamClosed},
	{kindUnstreamable, aas.ErrUnstreamableOp},
}

// classify maps a non-nil call error to its kind; errors matching no
// sentinel are kindOther.
func classify(err error) errKind {
	for _, s := range kindSentinels {
		if errors.Is(err, s.err) {
			return s.kind
		}
	}
	return kindOther
}

// errWrongOutput marks a call that succeeded with a result other than the
// one the benchmark's shadow of the Store's state predicts. It is a
// correctness failure of the run, not a failed call.
var errWrongOutput = errors.New("wrong output")
