package core

// Typed artifact handles, the one content-addressing helper, and the
// promises a full registration builds its preoperative model through.
//
// A pure stage is a receiver-less function
//
//	func(ctx, in In, key K) (Out, error)
//
// of its input artifact and a small struct of the Config fields it may
// read. Nothing else is in scope, so a pure stage cannot depend on
// anything its store key does not cover: cached derives the key from
// the very `in` and `key` values it then passes to the function, and
// goCached runs cached beside the scan.

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

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
	v, sum, hit, err := artifact.Value(ctx, store, storeKey, compute, c.marshal, c.unmarshal)
	if err != nil {
		return nil, err
	}
	obs.SpanFromContext(ctx).SetAttr(name+"_cache_hit", hit)
	return &handle[Out]{val: v, hash: func() []byte { return sum[:] }}, nil
}

// builds is the work a full registration runs beside its scan: the five
// preop-pure stages, each on a goroutine of its own from the moment its
// input exists, and the scan's φ. runStages makes one per scan and
// stops it on every return path, so no build outlives the scan.
type builds struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// panicked is the first panic a build recovered.
	panicked atomic.Pointer[buildPanic]
}

// newBuilds derives the builds' cancellable context from the scan's.
func newBuilds(ctx context.Context) *builds {
	ctx, cancel := context.WithCancel(ctx)
	return &builds{ctx: ctx, cancel: cancel}
}

// stop cancels the builds' context, joins every build started, and
// returns the first panic a build recovered, nil if none. Stopping
// twice is stopping once.
func (b *builds) stop() *buildPanic {
	b.cancel()
	b.wg.Wait()
	return b.panicked.Load()
}

// buildPanic is a build's panic carried to the scan's goroutine: the
// value and the stack of the build it came from.
type buildPanic struct {
	value any
	stack []byte
}

func (p *buildPanic) Error() string {
	return fmt.Sprintf("%v [recovered in a build beside the scan]\n%s", p.value, p.stack)
}

// promise is the outcome of work started beside the scan.
type promise[T any] struct {
	done     chan struct{}
	val      T
	err      error
	panicked *buildPanic
}

// goBuild starts fn on a goroutine of its own, with the builds'
// context, and returns the promise of its outcome. A panic in fn is
// recovered there and raised again on the scan's goroutine: by wait,
// or, when nothing waited, by runStages once it has stopped the builds.
func goBuild[T any](b *builds, fn func(context.Context) (T, error)) *promise[T] {
	p := &promise[T]{done: make(chan struct{})}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		defer close(p.done)
		defer func() {
			if v := recover(); v != nil {
				// A build that waited on a panicked input carries that
				// input's panic on.
				bp, ok := v.(*buildPanic)
				if !ok {
					bp = &buildPanic{value: v, stack: debug.Stack()}
				}
				p.panicked = bp
				b.panicked.CompareAndSwap(nil, bp)
			}
		}()
		p.val, p.err = fn(b.ctx)
	}()
	return p
}

// wait blocks until the promised work has finished and returns its
// outcome; a panic in it is raised again here.
func (p *promise[T]) wait() (T, error) {
	<-p.done
	if p.panicked != nil {
		panic(p.panicked)
	}
	return p.val, p.err
}

// goCached starts the pure stage fn beside the scan and returns the
// promise of its handle. On a goroutine of its own it first waits for
// its input — in is an earlier build's wait, or ready for an artifact
// that exists — then runs cached, under a preop.build span that names
// the stage and, with a store, states its <name>_cache_hit.
func goCached[In, K, Out any](b *builds, store *artifact.Store, name string,
	fn func(context.Context, In, K) (Out, error), in func() (*handle[In], error), key K, c codec[Out]) *promise[*handle[Out]] {
	return goBuild(b, func(ctx context.Context) (out *handle[Out], err error) {
		h, err := in()
		if err != nil {
			return nil, err
		}
		ctx, span := obs.StartSpan(ctx, obs.SpanPreopBuild)
		defer func() { span.End(err) }()
		span.SetAttr("artifact", name)
		return cached(ctx, store, name, fn, h, key, c)
	})
}

// ready is the input of a build whose artifact already exists.
func ready[T any](h *handle[T]) func() (*handle[T], error) {
	return func() (*handle[T], error) { return h, nil }
}
