package main

import (
	"sync"
	"time"

	"repro/internal/workload"
)

// reqTimeout is the fixed per-request timeout, well above any seed
// downtime. A request that passes it counts as failed.
const reqTimeout = time.Second

// protocol is how one workload's clients talk to the server.
type protocol struct {
	open    func(conn int) (*workload.Session, error)
	request func(conn, n int) string
	valid   func(conn, n int, resp string) bool
	// churn closes and reopens a connection's session every churn
	// requests (0 = keep it open); phases staggers each connection's
	// first reopen.
	churn  int
	phases []int
}

// reqRec is one request of the open loop. Latency runs from the due time,
// so a request queued behind a stall is charged the stall.
type reqRec struct {
	due   time.Duration // since the run's origin
	late  time.Duration // how late the generator sent it
	lat   float64       // ms from due to reply; +Inf when failed
	wrong bool          // a reply arrived but did not answer this request
}

// sender is one client connection with its own schedule. Only its own
// goroutine touches it until the generator stops.
type sender struct {
	id         int
	sess       *workload.Session
	recs       []reqRec
	reconnects int             // reopenings after a failed request
	opens      []time.Duration // every session open attempt, set-up included
}

// loadGen is the open-loop generator: one process, one sender goroutine
// per connection, each on a fixed schedule regardless of how the server
// keeps up.
type loadGen struct {
	proto    protocol
	interval time.Duration // between one connection's requests
	tr       *tracer
	senders  []*sender
	start    time.Time     // the first requests are due here
	base     time.Duration // start, as an offset from the run's origin
	stop     chan struct{}
	wg       sync.WaitGroup
}

// newLoadGen opens every connection's session (part of set-up).
func newLoadGen(proto protocol, conns int, rate float64, tr *tracer) (*loadGen, error) {
	g := &loadGen{
		proto:    proto,
		interval: time.Duration(float64(conns) * float64(time.Second) / rate),
		tr:       tr,
		stop:     make(chan struct{}),
	}
	for i := 0; i < conns; i++ {
		s := &sender{id: i}
		if err := g.open(s); err != nil {
			g.closeAll()
			return nil, err
		}
		g.senders = append(g.senders, s)
	}
	return g, nil
}

func (g *loadGen) open(s *sender) error {
	id := g.tr.begin("kernel", "session-open", -1, -1)
	t0 := time.Now()
	sess, err := g.proto.open(s.id)
	s.opens = append(s.opens, time.Since(t0))
	g.tr.end(id)
	if err != nil {
		return err
	}
	s.sess = sess
	return nil
}

// run starts the senders; the first requests are due at start. Request
// records carry their due times as offsets from origin.
func (g *loadGen) run(origin, start time.Time) {
	g.start, g.base = start, start.Sub(origin)
	for _, s := range g.senders {
		g.wg.Add(1)
		go g.send(s)
	}
}

// halt stops the senders, waits for each to finish its request in
// flight, and closes the sessions.
func (g *loadGen) halt() {
	close(g.stop)
	g.wg.Wait()
	g.closeAll()
}

func (g *loadGen) closeAll() {
	for _, s := range g.senders {
		if s.sess != nil {
			s.sess.Close()
			s.sess = nil
		}
	}
}

func (g *loadGen) send(s *sender) {
	defer g.wg.Done()
	phase := time.Duration(s.id) * g.interval / time.Duration(len(g.senders))
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for n := 0; ; n++ {
		due := phase + time.Duration(n)*g.interval
		if wait := due - time.Since(g.start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-g.stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-g.stop:
				return
			default:
			}
		}
		sent := time.Since(g.start)
		if churn := g.proto.churn; churn > 0 && n > 0 && (n+g.proto.phases[s.id])%churn == 0 && s.sess != nil {
			s.sess.Close()
			s.sess = nil
		}
		if !g.reopen(s) {
			return
		}
		rec := reqRec{due: g.base + due, late: sent - due, lat: failed}
		if resp, err := g.roundTrip(s, n); err == nil {
			if g.proto.valid(s.id, n, resp) {
				rec.lat = ms(time.Since(g.start) - due)
			} else {
				rec.wrong = true
			}
		}
		if rec.lat == failed && s.sess != nil {
			s.sess.Close()
			s.sess = nil
			s.reconnects++
		}
		s.recs = append(s.recs, rec)
	}
}

// reopen makes sure the sender has a session, retrying until one opens
// or the generator stops (false).
func (g *loadGen) reopen(s *sender) bool {
	for s.sess == nil {
		if g.open(s) == nil {
			return true
		}
		select {
		case <-g.stop:
			return false
		case <-time.After(time.Millisecond):
		}
	}
	return true
}

func (g *loadGen) roundTrip(s *sender, n int) (string, error) {
	id := g.tr.begin("workload", "request", -1, -1)
	defer g.tr.end(id)
	cc := s.sess.Conns[0]
	if err := cc.Send([]byte(g.proto.request(s.id, n))); err != nil {
		return "", err
	}
	resp, err := cc.Recv(reqTimeout)
	return string(resp), err
}

// records merges every sender's requests.
func (g *loadGen) records() []reqRec {
	var out []reqRec
	for _, s := range g.senders {
		out = append(out, s.recs...)
	}
	return out
}
