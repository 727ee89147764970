// SLO plane: with -slo-query-p99 set, brokerd evaluates declarative
// service-level objectives over the live request streams and alerts on
// error-budget burn rate (see internal/obs/slo.go for the engine and the
// window math):
//
//	query_latency      — /path served under the -slo-query-p99 budget
//	setup_success      — session lifecycle ops (setup, renew) that succeed
//	region<q>_crossing — per-region stitched-segment latency (with -regions)
//
// GET /slo serves the evaluated state — burn rates over all four windows,
// alert state, error budget remaining, and the trace IDs of recent bad
// events plus the query plane's slowest-request exemplars — so a firing
// alert walks directly to the worst offending traces in /debug/trace.
//
// An alert transition into firing is treated as an incident: the flight
// recorder is dumped to -slo-dump (the control-plane events leading up to
// the burn) and the mutex/block profilers are armed so the minutes after
// the page are profiled even when -pprof sampling was off at boot.
package daemon

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"brokerset/internal/obs"
)

// SLOConfig carries the -slo-* flags.
type SLOConfig struct {
	// QueryP99 is the query-latency objective; setting it enables the
	// whole SLO plane.
	QueryP99 time.Duration
	// CrossingMs is the per-region stitched-segment modeled-latency budget
	// (only used with -regions).
	CrossingMs float64
	// Window is the burn-rate base window (the fast pair's long window).
	Window time.Duration
	// Every is the evaluation tick (default Window/48, floored at 50ms).
	Every time.Duration
	// DumpPath, when non-empty, receives a flight-recorder dump whenever a
	// burn-rate alert transitions into firing.
	DumpPath string
}

// enableSLO builds the engine and registers the objectives. Must run after
// enableFederation so the per-region crossing objectives cover every
// region, and after initObs (the slo_* families register on s.reg).
func (s *Daemon) enableSLO(cfg SLOConfig) {
	s.slo = obs.NewSLOEngine(obs.SLOConfig{BaseWindow: cfg.Window})
	s.sloQuery = s.slo.Add(obs.Objective{
		Name: "query_latency", Help: "path queries served under the latency budget",
		Target: 0.99, Latency: cfg.QueryP99,
	})
	s.sloSetup = s.slo.Add(obs.Objective{
		Name: "setup_success", Help: "session lifecycle operations (setup, renew) that succeeded",
		Target: 0.999,
	})
	if s.fed != nil {
		crossing := time.Duration(cfg.CrossingMs * float64(time.Millisecond))
		for q := 0; q < s.fed.NumRegions(); q++ {
			s.sloCrossing = append(s.sloCrossing, s.slo.Add(obs.Objective{
				Name:   fmt.Sprintf("region%d_crossing", q),
				Help:   fmt.Sprintf("region %d stitched segments under the crossing latency budget", q),
				Target: 0.99, Latency: crossing,
			}))
		}
	}
	s.slo.RegisterMetrics(s.reg)
}

// onSLOAlert reacts to one alert edge. Firing is an incident: capture the
// flight recorder (the control-plane history that led here) and arm the
// contention profilers so the incident window is profiled even when -pprof
// sampling was off at boot. Resolution just logs — the captured evidence
// stays put.
func (s *Daemon) onSLOAlert(tr obs.AlertTransition) {
	state := "resolved"
	if tr.Firing {
		state = "firing"
	}
	fmt.Printf("brokerd: slo alert %s/%s %s (burn long %.2f short %.2f)\n",
		tr.Objective, tr.Severity, state, tr.BurnLong, tr.BurnShort)
	s.flight.Record("brokerd", "slo_alert", 0, "%s",
		fmt.Sprintf("%s/%s %s burn_long=%.2f burn_short=%.2f", tr.Objective, tr.Severity, state, tr.BurnLong, tr.BurnShort))
	if !tr.Firing {
		return
	}
	runtime.SetMutexProfileFraction(100)
	runtime.SetBlockProfileRate(100_000)
	if path := s.cfg.SLO.DumpPath; path != "" {
		s.dumpFlight(path, tr)
	}
}

// dumpFlight writes the flight recorder to path, stamped with the alert
// that triggered it. Last alert wins the file — the interesting dump is
// the freshest one.
func (s *Daemon) dumpFlight(path string, tr obs.AlertTransition) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Printf("brokerd: slo flight dump: %v\n", err)
		return
	}
	defer f.Close()
	_ = s.flight.Dump(f, map[string]any{
		"source":    "brokerd",
		"trigger":   "slo_alert",
		"objective": tr.Objective,
		"severity":  string(tr.Severity),
	})
}

// sloResponse is the GET /slo payload: the engine's evaluated state plus
// the query plane's slowest-request exemplars, so a burning objective
// walks straight to trace IDs loadable in /debug/trace?trace=ID.
type sloResponse struct {
	obs.Status
	QueryExemplars []obs.Exemplar `json:"query_exemplars,omitempty"`
}

func (s *Daemon) handleSLO(w http.ResponseWriter, r *http.Request) {
	if s.slo == nil {
		writeError(w, http.StatusNotFound, "slo engine disabled; boot with -slo-query-p99")
		return
	}
	writeJSON(w, http.StatusOK, sloResponse{
		Status:         s.slo.Status(),
		QueryExemplars: s.qp.Exemplars(),
	})
}

// refuseSpan emits a terminal child span on a refusal path. The early
// returns (shed, timeout, lease lapse) otherwise leave a trace
// holding only the generic HTTP root span, which makes refusals
// indistinguishable from successes in /debug/trace.
func (s *Daemon) refuseSpan(ctx context.Context, name, reason string) {
	_, span := obs.StartSpan(ctx, name)
	span.Annotate("outcome", reason)
	span.End()
}
