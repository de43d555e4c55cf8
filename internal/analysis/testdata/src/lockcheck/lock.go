// Package lockcheck is a fixture exercising the mutex-hygiene analyzer.
package lockcheck

import "sync"

// Counter guards n with a mutex.
type Counter struct {
	mu sync.Mutex
	n  int
}

// LeakNoUnlock never releases.
func LeakNoUnlock(c *Counter) {
	c.mu.Lock() // want "not released"
	c.n++
}

// LeakOnEarlyReturn misses the unlock on one return path.
func LeakOnEarlyReturn(c *Counter, bail bool) int {
	c.mu.Lock() // want "not released"
	if bail {
		return 0
	}
	c.n++
	c.mu.Unlock()
	return c.n
}

// BranchUnlockOK releases on every path without defer.
func BranchUnlockOK(c *Counter, bail bool) int {
	c.mu.Lock()
	if bail {
		c.mu.Unlock()
		return 0
	}
	n := c.n
	c.mu.Unlock()
	return n
}

// DeferOK releases via defer.
func DeferOK(c *Counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// DeferClosureOK releases inside a deferred function literal.
func DeferClosureOK(c *Counter) int {
	c.mu.Lock()
	defer func() {
		c.n = 0
		c.mu.Unlock()
	}()
	return c.n
}

// DoubleLock deadlocks on itself.
func DoubleLock(c *Counter) {
	c.mu.Lock()
	c.mu.Lock() // want "already held"
	c.mu.Unlock()
	c.mu.Unlock()
}

// RW pairs read locks with read unlocks.
type RW struct {
	mu sync.RWMutex
	v  int
}

// ReadLeak takes a read lock and never releases it.
func (r *RW) ReadLeak() int {
	r.mu.RLock() // want "not released"
	return r.v
}

// ReadOK is the correct form.
func (r *RW) ReadOK() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.v
}

// unlockOnly releases a lock its caller acquired (handoff); the analyzer
// exempts locks first seen being released.
func unlockOnly(c *Counter) {
	c.n++
	c.mu.Unlock()
}
