package mqttsn

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/provlight/provlight/internal/resilience"
)

// CongestionRetryAfter is the least a Session waits before redialing a
// gateway that refused its CONNECT for congestion ("come back later").
const CongestionRetryAfter = time.Second

// SessionConfig configures a supervised Session.
type SessionConfig struct {
	// Client is the template for every connect; the session sets its
	// OnDisconnect. Each connect dials a fresh socket through
	// Client.Transport, closed with its client.
	Client ClientConfig
	// Gateways, when set, overrides Client.Gateway with home-first
	// rotation: a dial after a connect goes to Gateways[Home], and each
	// failed dial moves on to the next address.
	Gateways []string
	Home     int
	// ClientID, when set, names each connect.
	ClientID func() string
	// Setup runs on every connect after CONNACK; an error fails the dial.
	// The client is already visible through Session.Client, so a caller
	// racing the connect reaches the new session.
	Setup func(mc *Client) error
	// Serve, when set, works one established session on the session's
	// goroutine and returns once down is closed; the client is then
	// closed and redialed. Without Serve the session waits for down.
	Serve func(mc *Client, down <-chan struct{})
	// Backoff spaces the dials: the first is immediate, every later one
	// (after a failed dial or a dead session) waits
	// Backoff.DelayFor(n, err), n counting the waits since the last
	// connect — at least CongestionRetryAfter after a congestion refusal.
	Backoff resilience.Backoff
	// OnDialError, when set, observes each failed dial (attempt is the
	// 1-based failure streak) and returns the error that decides what
	// follows: one marked resilience.Permanent ends the session.
	OnDialError func(attempt int, err error) error
}

// SessionStats counts a session's supervision activity.
type SessionStats struct {
	Attempts          uint64 // dials, successful or not
	Connects          uint64 // sessions established, the first included
	ConsecFailures    uint64 // current failed-dial streak
	NextRetryUnixNano int64  // when the next dial is due; 0 when not waiting
}

// Redials is the number of sessions established after the first one.
func (st SessionStats) Redials() uint64 {
	if st.Connects == 0 {
		return 0
	}
	return st.Connects - 1
}

// Session keeps one MQTT-SN session alive. It dials, runs Setup and
// Serve, and when the session dies (broker DISCONNECT, silent gateway,
// socket error, or the caller closing the client) it closes the remains
// and redials under the backoff, until stopped or a dial fails
// permanently.
type Session struct {
	cfg    SessionConfig
	ctx    context.Context // canceled by stop: aborts a dial, ends a wait
	cancel context.CancelFunc

	mu       sync.Mutex
	live     *liveSession // nil while down
	stopped  bool
	graceful bool
	wg       sync.WaitGroup

	attempts  atomic.Uint64
	connects  atomic.Uint64
	fails     atomic.Uint64
	nextRetry atomic.Int64
}

// liveSession is one connection: the client and its down channel.
type liveSession struct {
	mc   *Client
	down chan struct{}
}

// close tears the connection down, with the DISCONNECT goodbye when
// graceful so the broker releases the session at once.
func (l *liveSession) close(graceful bool) {
	if graceful {
		_ = l.mc.Disconnect() // closes the client even when the goodbye cannot be sent
	} else {
		l.mc.Close()
	}
}

// NewSession prepares a session; nothing is dialed until Start or Open.
func NewSession(cfg SessionConfig) *Session {
	if cfg.Serve == nil {
		cfg.Serve = func(_ *Client, down <-chan struct{}) { <-down }
	}
	s := &Session{cfg: cfg}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s
}

// Start supervises the session in the background, dialing at once.
func (s *Session) Start() {
	s.wg.Add(1)
	go s.run(nil)
}

// Open makes the first dial synchronously, bounded by ctx, then
// supervises like Start; on failure nothing is left running.
func (s *Session) Open(ctx context.Context) error {
	l, err := s.dial(ctx)
	if err != nil {
		return err
	}
	s.wg.Add(1)
	go s.run(l)
	return nil
}

// Client returns the established client, or nil while down.
func (s *Session) Client() *Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.live == nil {
		return nil
	}
	return s.live.mc
}

// Stats returns a snapshot of the supervision counters.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		Attempts:          s.attempts.Load(),
		Connects:          s.connects.Load(),
		ConsecFailures:    s.fails.Load(),
		NextRetryUnixNano: s.nextRetry.Load(),
	}
}

// Disconnect stops the session with the protocol goodbye and waits for
// the supervisor to exit.
func (s *Session) Disconnect() { s.stop(true) }

// Close stops the session as a crash would — no goodbye, a dial blocked
// in Connect is aborted — and waits for the supervisor to exit.
func (s *Session) Close() { s.stop(false) }

func (s *Session) stop(graceful bool) {
	s.mu.Lock()
	s.stopped, s.graceful = true, graceful
	l := s.live
	s.live = nil
	s.mu.Unlock()
	s.cancel()
	if l != nil {
		l.close(graceful)
	}
	s.wg.Wait()
}

// run is the supervisor loop; l is the session Open established, if any.
func (s *Session) run(l *liveSession) {
	defer s.wg.Done()
	waits := 0 // waits since the last connect
	for {
		if l == nil {
			var err error
			if l, err = s.dial(s.ctx); err != nil {
				if s.ctx.Err() != nil {
					return
				}
				if h := s.cfg.OnDialError; h != nil {
					err = h(int(s.fails.Load()), err)
				}
				if resilience.IsPermanent(err) || !s.sleep(s.cfg.Backoff.DelayFor(waits, err)) {
					return
				}
				waits++
				continue
			}
			waits = 0
		}
		s.cfg.Serve(l.mc, l.down)
		s.retire(l)
		l = nil
		if !s.sleep(s.cfg.Backoff.Delay(waits)) {
			return
		}
		waits++
	}
}

// dial makes one connect attempt and installs the result as the live
// session.
func (s *Session) dial(ctx context.Context) (*liveSession, error) {
	s.attempts.Add(1)
	l, err := s.connect(ctx)
	if err == nil {
		err = s.install(ctx, l)
	}
	if err != nil {
		s.fails.Add(1)
		if errors.Is(err, ErrCongestion) {
			err = &resilience.RetryAfterError{After: CongestionRetryAfter, Err: err}
		}
		return nil, err
	}
	s.fails.Store(0)
	s.connects.Add(1)
	return l, nil
}

// connect dials and connects one client (no Setup yet).
func (s *Session) connect(ctx context.Context) (*liveSession, error) {
	cfg := s.cfg.Client
	if n := len(s.cfg.Gateways); n > 0 {
		cfg.Gateway = s.cfg.Gateways[(s.cfg.Home+int(s.fails.Load()))%n]
	}
	if s.cfg.ClientID != nil {
		cfg.ClientID = s.cfg.ClientID()
	}
	l := &liveSession{down: make(chan struct{})}
	var once sync.Once
	markDown := func() { once.Do(func() { close(l.down) }) }
	cfg.OnDisconnect = func(error) { markDown() }
	mc, err := NewClient(cfg)
	if err != nil {
		return nil, err
	}
	if err := mc.WithContext(ctx, mc.Connect); err != nil {
		mc.Close()
		return nil, err
	}
	l.mc = mc
	// One down signal for both ways a session dies: OnDisconnect (the
	// gateway or socket failed) and Done (the client was closed).
	go func() {
		select {
		case <-mc.Done():
			markDown()
		case <-l.down:
		}
	}()
	return l, nil
}

// install publishes l as the live session and runs Setup on it, bounded
// by ctx; on a stop or a Setup failure l is closed instead.
func (s *Session) install(ctx context.Context, l *liveSession) error {
	s.mu.Lock()
	if s.stopped {
		graceful := s.graceful
		s.mu.Unlock()
		l.close(graceful)
		return ErrClosed
	}
	s.live = l
	s.mu.Unlock()
	if s.cfg.Setup == nil {
		return nil
	}
	err := l.mc.WithContext(ctx, func() error { return s.cfg.Setup(l.mc) })
	if err != nil {
		s.retire(l)
	}
	return err
}

// retire closes a dead or failed session unless a stop already took it
// (the stopper tears it down then).
func (s *Session) retire(l *liveSession) {
	s.mu.Lock()
	mine := s.live == l
	if mine {
		s.live = nil
	}
	s.mu.Unlock()
	if mine {
		l.close(false)
	}
}

// sleep waits d, publishing the wake deadline in Stats; false means the
// session was stopped.
func (s *Session) sleep(d time.Duration) bool {
	s.nextRetry.Store(time.Now().Add(d).UnixNano())
	defer s.nextRetry.Store(0)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.ctx.Done():
		return false
	}
}
