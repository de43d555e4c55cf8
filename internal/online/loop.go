package online

// This file is the package's only wall-clock adapter: everything else in
// internal/online is deterministic (nowUnix flows in as a parameter, all
// randomness is seeded). It is exempted by name in the detrand analyzer's
// deterministic set — keep time.Now / tickers confined here.

import (
	"sync"
	"time"
)

// LoopConfig configures the background training loop.
type LoopConfig struct {
	// Interval between DAgger cycles (default 30s).
	Interval time.Duration
	// Manager is the cycle driver. Required.
	Manager *Manager
	// OnError, when set, receives cycle errors (for logging).
	OnError func(error)
}

// Loop drives Manager cycles on a wall-clock ticker.
type Loop struct {
	cfg  LoopConfig
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartLoop launches the background trainer goroutine. The goroutine is
// panic-isolated per tick: a panicking cycle is recorded as a train
// failure and the loop keeps ticking.
func StartLoop(cfg LoopConfig) *Loop {
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	l := &Loop{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	go l.run()
	return l
}

func (l *Loop) run() {
	defer close(l.done)
	t := time.NewTicker(l.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.tick()
		}
	}
}

// tick runs one cycle + promotion check, panic-isolated.
func (l *Loop) tick() {
	defer func() {
		if p := recover(); p != nil {
			l.cfg.Manager.trainFailure()
		}
	}()
	m := l.cfg.Manager
	// Cycle boundary is the durability point for buffered sample appends.
	_ = m.cfg.Log.Sync()
	if err := m.RunCycle(time.Now().Unix()); err != nil && l.cfg.OnError != nil {
		l.cfg.OnError(err)
	}
	if _, err := m.TryPromote(); err != nil && l.cfg.OnError != nil {
		l.cfg.OnError(err)
	}
}

// Close stops the loop and waits for the in-flight tick to finish.
func (l *Loop) Close() {
	l.once.Do(func() { close(l.stop) })
	<-l.done
}
