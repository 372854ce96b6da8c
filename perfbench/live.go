package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/program"
	"repro/internal/servers"
	"repro/internal/workload"
)

// Live workloads: an open loop of liveConns client connections while an
// operator updates the server every liveGap after the previous update
// returns.
const (
	liveConns = 2
	liveGap   = 250 * time.Millisecond

	httpdRate      = 1000.0 // requests per second, all connections
	httpdPool      = 4      // worker threads per httpd worker process
	httpdBlock     = 5      // one injected rollback per block of updates
	vsftpdRate     = 500.0
	vsftpdEvery    = 50 // requests per FTP session before it is reopened
	warmConvergeBy = 10 * time.Second
)

// httpdLive runs the httpd worker-MPM model with the warm daemon armed.
// Updates walk the release stream; one seed-chosen update per block of
// httpdBlock is armed with restart-crash and must roll back.
type httpdLive struct {
	injectAt int // position of the injected update in the current block
}

func newHTTPDLive() scenario { return &httpdLive{} }

func (h *httpdLive) gap() time.Duration { return liveGap }

func (h *httpdLive) start(p *phase) error {
	servers.SetHttpdPoolThreads(httpdPool)
	opts := core.DefaultOptions()
	opts.Warm.Enabled = true
	p.plane = faultinject.New(uint64(p.seed))
	opts.Faults = p.plane
	if err := launch(p, opts, servers.HttpdVersion(0)); err != nil {
		return err
	}
	if !p.eng.WarmWait(warmConvergeBy) {
		return fmt.Errorf("httpd-live: warm daemon did not converge within %v", warmConvergeBy)
	}
	return openLoad(p, protocol{
		open: func(int) (*workload.Session, error) {
			return workload.OpenKeepalive(p.kern, servers.HttpdPort, false)
		},
		request: httpdRequest,
		valid: func(conn, n int, resp string) bool {
			return strings.Contains(resp, "ka-req="+httpdRequest(conn, n))
		},
	}, httpdRate)
}

func httpdRequest(conn, n int) string { return fmt.Sprintf("GET /load-%d-%d", conn, n) }

func (h *httpdLive) next(p *phase, u *updateRec) (*program.Version, error) {
	if u.n%httpdBlock == 0 {
		h.injectAt = p.rng.Intn(httpdBlock)
	}
	u.inject = u.n%httpdBlock == h.injectAt
	return servers.HttpdVersion(u.fromSeq + 1), nil
}

func (h *httpdLive) check(*phase, *updateRec) error { return nil }

// vsftpdChurn runs the vsftpd process-per-connection model on the cold
// pipelined engine. Each connection reopens its session every
// vsftpdEvery requests, from a seed-chosen offset, forking a new session
// handler each time.
type vsftpdChurn struct{}

func newVsftpdChurn() scenario { return vsftpdChurn{} }

func (vsftpdChurn) gap() time.Duration { return liveGap }

func (vsftpdChurn) start(p *phase) error {
	if err := launch(p, core.DefaultOptions(), servers.VsftpdVersion(0)); err != nil {
		return err
	}
	phases := make([]int, liveConns)
	for i := range phases {
		phases[i] = p.rng.Intn(vsftpdEvery)
	}
	return openLoad(p, protocol{
		open: func(conn int) (*workload.Session, error) {
			return workload.OpenFTP(p.kern, servers.VsftpdPort, fmt.Sprintf("load%d", conn))
		},
		request: func(int, int) string { return "STAT" },
		valid:   func(_, _ int, resp string) bool { return strings.HasPrefix(resp, "211 ") },
		churn:   vsftpdEvery,
		phases:  phases,
	}, vsftpdRate)
}

func (vsftpdChurn) next(_ *phase, u *updateRec) (*program.Version, error) {
	return servers.VsftpdVersion(u.fromSeq + 1), nil
}

func (vsftpdChurn) check(*phase, *updateRec) error { return nil }

// launch creates the engine over a fresh kernel and launches v.
func launch(p *phase, opts core.Options, v *program.Version) error {
	p.kern = kernel.New()
	servers.SeedFiles(p.kern)
	eng, err := core.NewEngine(p.kern, opts)
	if err != nil {
		return err
	}
	p.eng = eng
	_, err = eng.Launch(v)
	return err
}

func openLoad(p *phase, proto protocol, rate float64) error {
	g, err := newLoadGen(proto, liveConns, rate, p.tr)
	if err != nil {
		return fmt.Errorf("open sessions: %w", err)
	}
	p.load, p.live = g, true
	return nil
}
