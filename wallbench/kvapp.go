package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"versadep/internal/codec"
)

// valueBytes is the size of every stored value.
const valueBytes = 64

// kvApp is the replicated application the workloads drive: a fixed set
// of keys, each holding one 64-byte value. Keys are dense indices, so the
// whole state is one arena and State() is a single copy with a header.
// Every replica starts from the same seeded contents.
type kvApp struct {
	mu    sync.Mutex
	arena []byte // keys × valueBytes
}

func newKVApp(keys int, seed int64) *kvApp {
	a := &kvApp{arena: make([]byte, keys*valueBytes)}
	rand.New(rand.NewSource(seed)).Read(a.arena)
	return a
}

func (a *kvApp) keys() int { return len(a.arena) / valueBytes }

// Invoke implements orb.Servant: "put" (key, value) and "get" (key).
func (a *kvApp) Invoke(op string, args []codec.Value) ([]codec.Value, error) {
	if len(args) == 0 || args[0].Kind != codec.KindUint64 || args[0].Uint >= uint64(a.keys()) {
		return nil, errors.New("kv: bad key")
	}
	off := int(args[0].Uint) * valueBytes
	a.mu.Lock()
	defer a.mu.Unlock()
	switch op {
	case "put":
		if len(args) != 2 || args[1].Kind != codec.KindBytes || len(args[1].Byt) != valueBytes {
			return nil, errors.New("kv: bad value")
		}
		copy(a.arena[off:off+valueBytes], args[1].Byt)
		return nil, nil
	case "get":
		v := make([]byte, valueBytes)
		copy(v, a.arena[off:off+valueBytes])
		return []codec.Value{codec.Bytes(v)}, nil
	}
	return nil, fmt.Errorf("kv: unknown operation %q", op)
}

// State implements replication.Checkpointable.
func (a *kvApp) State() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]byte, len(a.arena))
	copy(out, a.arena)
	return out
}

// Restore implements replication.Checkpointable.
func (a *kvApp) Restore(state []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(state) != len(a.arena) {
		return fmt.Errorf("kv: state is %d bytes, want %d", len(state), len(a.arena))
	}
	copy(a.arena, state)
	return nil
}

// value returns a copy of one key's current value.
func (a *kvApp) value(key int) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]byte(nil), a.arena[key*valueBytes:(key+1)*valueBytes]...)
}

// appCounters is the traced application boundary: calls and busy time of
// Invoke, State and Restore across every replica, counted only while on.
type appCounters struct {
	on                  atomic.Bool
	execs, execNs       atomic.Int64
	captures, captureNs atomic.Int64
	restores, restoreNs atomic.Int64
	lastStateBytes      atomic.Int64
}

// tracedApp wraps the application a replica registers.
type tracedApp struct {
	*kvApp
	c *appCounters
}

func (t tracedApp) Invoke(op string, args []codec.Value) ([]codec.Value, error) {
	if !t.c.on.Load() {
		return t.kvApp.Invoke(op, args)
	}
	start := time.Now()
	out, err := t.kvApp.Invoke(op, args)
	t.c.execNs.Add(int64(time.Since(start)))
	t.c.execs.Add(1)
	return out, err
}

func (t tracedApp) State() []byte {
	if !t.c.on.Load() {
		return t.kvApp.State()
	}
	start := time.Now()
	s := t.kvApp.State()
	t.c.captureNs.Add(int64(time.Since(start)))
	t.c.captures.Add(1)
	t.c.lastStateBytes.Store(int64(len(s)))
	return s
}

func (t tracedApp) Restore(state []byte) error {
	if !t.c.on.Load() {
		return t.kvApp.Restore(state)
	}
	start := time.Now()
	err := t.kvApp.Restore(state)
	t.c.restoreNs.Add(int64(time.Since(start)))
	t.c.restores.Add(1)
	return err
}
