package core

// Typed artifact handles and the one content-addressing helper.
//
// A pure stage is a receiver-less function
//
//	func(ctx, in In, key K) (Out, error)
//
// of its input artifact and a small struct of the Config fields it may
// read. Nothing else is in scope, so a pure stage cannot depend on
// anything its store key does not cover: cached derives the key from
// the very `in` and `key` values it then passes to the function.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/artifact"
	"repro/internal/obs"
)

// handle is a typed artifact travelling with its content hash: the hash
// the store took of a stage output's encoding, or of the value's
// encoding for a pipeline root. hash is memoized, so an artifact is
// hashed at most once per process however many stages and sessions key
// on it — and never when no store is configured.
type handle[T any] struct {
	val  T
	hash func() []byte
}

// source wraps a value no cached stage produced.
func source[T any](c codec[T], v T) *handle[T] {
	return &handle[T]{val: v, hash: sync.OnceValue(func() []byte {
		return []byte(artifact.Key(c.marshal(v)))
	})}
}

// pair is the input of a two-input stage; join chains the hashes.
type pair[A, B any] struct {
	A A
	B B
}

func join[A, B any](a *handle[A], b *handle[B]) *handle[pair[A, B]] {
	return &handle[pair[A, B]]{val: pair[A, B]{a.val, b.val}, hash: sync.OnceValue(func() []byte {
		return []byte(artifact.Key(a.hash(), b.hash()))
	})}
}

// cached runs the pure stage fn through the artifact store (directly
// when store is nil). The store key is the codec version, the stage
// name, the canonical rendering of key — %#v prints every field,
// ignores String methods and sorts maps, so Go's map iteration order
// never leaks into a key — and the content hash of in. The store keeps
// values, not bytes: a miss hands downstream the very value fn
// returned, and every hit in the process hands out that same value, so
// hit and miss runs see identical artifacts by construction — and must
// treat them as read-only. Only a value read back from the disk tier
// has been through the codec, whose round trip is bit-exact; an entry
// that no longer decodes is quarantined by the store and recomputed as
// a miss.
func cached[In, K, Out any](ctx context.Context, store *artifact.Store, name string,
	fn func(context.Context, In, K) (Out, error), in *handle[In], key K, c codec[Out]) (*handle[Out], error) {
	compute := func() (Out, error) { return fn(ctx, in.val, key) }
	if store == nil {
		v, err := compute()
		if err != nil {
			return nil, err
		}
		return source(c, v), nil
	}
	storeKey := artifact.Key([]byte(fmt.Sprintf("core-v%d", codecVersion)), []byte(name),
		[]byte(fmt.Sprintf("%#v", key)), in.hash())
	v, sum, hit, err := artifact.Value(store, storeKey, compute, c.marshal, c.unmarshal)
	if err != nil {
		return nil, err
	}
	obs.SpanFromContext(ctx).SetAttr(name+"_cache_hit", hit)
	return &handle[Out]{val: v, hash: func() []byte { return sum[:] }}, nil
}
