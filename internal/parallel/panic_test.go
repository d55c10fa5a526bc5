package parallel

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// mustPanicWithError runs f, requires it to panic with a *PanicError,
// and returns it.
func mustPanicWithError(t *testing.T, f func()) *PanicError {
	t.Helper()
	var pe *PanicError
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("no panic propagated")
			}
			var ok bool
			pe, ok = r.(*PanicError)
			if !ok {
				t.Fatalf("panic value is %T, want *PanicError", r)
			}
		}()
		f()
	}()
	return pe
}

func TestPoolWorkerPanicPropagates(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	pe := mustPanicWithError(t, func() {
		p.For(100, 4, func(w int, r Range) {
			if r.Lo <= 42 && 42 < r.Hi {
				panic("boom at 42")
			}
		})
	})
	if pe.Value != "boom at 42" {
		t.Errorf("Value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "panic_test.go") {
		t.Error("stack does not point at the panicking body")
	}
	if !strings.Contains(pe.Error(), "boom at 42") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

// TestPoolSurvivesPanic: the same pool must stay usable — workers
// alive, mutex released — after containing a panic in every primitive.
func TestPoolSurvivesPanic(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	prims := map[string]func(bad bool){
		"Do": func(bad bool) {
			p.For(64, 4, func(w int, r Range) {
				if bad {
					panic("do")
				}
			})
		},
		"DoChunked": func(bad bool) {
			p.ForChunked(64, 4, 8, func(w int, r Range) {
				if bad {
					panic("chunked")
				}
			})
		},
		"ReduceFloat64": func(bad bool) {
			p.ReduceFloat64(64, 4, func(w int, r Range) float64 {
				if bad {
					panic("reduce")
				}
				return 1
			})
		},
		"ReduceVec": func(bad bool) {
			p.ReduceVec(64, 4, 3, func(w int, r Range, acc []float64) {
				if bad {
					panic("reducevec")
				}
			})
		},
	}
	for name, prim := range prims {
		prim := prim
		t.Run(name, func(t *testing.T) {
			mustPanicWithError(t, func() { prim(true) })
			// The pool must immediately accept and complete new work.
			done := false
			p.For(8, 4, func(w int, r Range) {
				if r.Lo == 0 {
					done = true
				}
			})
			if !done {
				t.Fatal("pool did not run work after a contained panic")
			}
		})
	}
}

// TestSpawnFallbackPanicPropagates: when the pool is busy, primitives
// fall back to spawned goroutines; those must contain panics the same
// way. Entering the fallback deterministically: issue pool work from
// inside pool work (the inner call finds the pool locked).
func TestSpawnFallbackPanicPropagates(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var inner *PanicError
	var mu sync.Mutex
	p.For(4, 2, func(w int, r Range) {
		if w != 0 {
			return
		}
		pe := mustPanicOrNil(func() {
			p.For(32, 2, func(w int, r Range) {
				if r.Lo == 0 {
					panic("spawned boom")
				}
			})
		})
		mu.Lock()
		inner = pe
		mu.Unlock()
	})
	if inner == nil {
		t.Fatal("no *PanicError from the spawn-fallback path")
	}
	if inner.Value != "spawned boom" {
		t.Errorf("Value = %v", inner.Value)
	}
	if len(inner.Stack) == 0 {
		t.Error("missing worker stack")
	}
}

func mustPanicOrNil(f func()) (pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe, _ = r.(*PanicError)
		}
	}()
	f()
	return nil
}

// TestPanicErrorUnwrap: error panic values unwrap for errors.Is.
func TestPanicErrorUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	p := NewPool(2)
	defer p.Close()
	pe := mustPanicWithError(t, func() {
		p.For(16, 2, func(w int, r Range) {
			if r.Lo == 0 {
				panic(sentinel)
			}
		})
	})
	if !errors.Is(pe, sentinel) {
		t.Error("PanicError does not unwrap to the panicked error")
	}
}

// TestFirstPanicWins: with several workers panicking, exactly one
// coherent PanicError surfaces.
func TestFirstPanicWins(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	pe := mustPanicWithError(t, func() {
		p.For(64, 4, func(w int, r Range) {
			panic(w)
		})
	})
	if _, ok := pe.Value.(int); !ok {
		t.Errorf("Value = %v (%T), want a worker index", pe.Value, pe.Value)
	}
}

// TestNestedPanicErrorPassthrough: a PanicError crossing a second
// containment layer is not double-wrapped.
func TestNestedPanicErrorPassthrough(t *testing.T) {
	orig := newPanicError("original")
	again := newPanicError(orig)
	if again != orig {
		t.Error("newPanicError re-wrapped an existing *PanicError")
	}
}

// TestWorkersOnePanicUnchanged: the workers==1 inline path is
// intentionally untrapped — the panic propagates raw on the caller's
// goroutine (callers' recover handles any value).
func TestWorkersOnePanicUnchanged(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	defer func() {
		if r := recover(); r != "raw" {
			t.Errorf("recovered %v, want the raw panic value", r)
		}
	}()
	p.For(4, 1, func(w int, r Range) { panic("raw") })
}
