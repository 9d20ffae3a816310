package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"silica/internal/costmodel"
	"silica/internal/faults"
	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/obs"
	"silica/internal/repair"
	"silica/internal/service"
	"silica/internal/staging"
)

// The HTTP/JSON API:
//
//	PUT    /v1/objects/{account}/{name...}  body = object bytes  → {"version": n}
//	GET    /v1/objects/{account}/{name...}  → object bytes (octet-stream)
//	DELETE /v1/objects/{account}/{name...}  → {"deleted": true}
//	POST   /v1/flush                        → {"flushed": true}   (drains staging)
//	GET    /v1/stats                        → StatsSnapshot JSON
//	GET    /v1/healthz                      → {"status":"ok"}; 503 {"status":"degraded",...}
//	                                          while a platter-set has lost redundancy
//	                                          or a rebuild is running
//	GET    /v1/health/platters              → repair.Snapshot JSON (per-platter health
//	                                          + transition history)
//	POST   /v1/repair/{platter}             → {"queued": true}    (fail + rebuild platter)
//	GET    /v1/cost                         → CostPayload JSON: §9 TCO comparison of
//	                                          tape/HDD/Silica; workload overridable via
//	                                          ?archive_tb=&horizon_years=&read_tb_year=
//	                                          &write_tb_year=
//	GET    /metrics                         → Prometheus text exposition (gateway,
//	                                          staging, codec, repair families)
//	GET    /v1/traces                       → TracesPayload JSON: recent sampled traces;
//	                                          ?slow=1 returns the slow-trace ring
//	GET    /v1/backend                      → backend.Status JSON (backend kind, policy,
//	                                          virtual clock, queue depths, drive util,
//	                                          shuttle stats)
//	POST   /v1/backend                      → switch the twin's scheduling policy; body
//	                                          {"policy":"silica|sp|ns"}; 409 on direct
//	POST   /v1/faults                       → FaultsPayload JSON (arm fault-injection
//	                                          rules; body = FaultsRequest)
//	GET    /v1/faults                       → FaultsPayload JSON (armed rules + fire counts)
//	DELETE /v1/faults                       → FaultsPayload JSON (disarm everything)
//
// Overload (queue full, staging watermark, staging capacity) returns
// 429; shutdown, injected faults, and unrecoverable data return 503.
// Both carry a Retry-After header with the server's backoff hint.
// Unknown objects return 404, caller deadline expiry 504.

// MaxObjectBytes caps a single PUT body; larger files belong to a
// multipart path this reproduction does not model.
const MaxObjectBytes = 64 << 20

// Handler returns the gateway's HTTP API.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/objects/{account}/{name...}", g.handlePut)
	mux.HandleFunc("GET /v1/objects/{account}/{name...}", g.handleGet)
	mux.HandleFunc("DELETE /v1/objects/{account}/{name...}", g.handleDelete)
	mux.HandleFunc("POST /v1/flush", g.handleFlush)
	mux.HandleFunc("GET /v1/stats", g.handleStats)
	mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	mux.HandleFunc("GET /v1/health/platters", g.handleHealthPlatters)
	mux.HandleFunc("POST /v1/repair/{platter}", g.handleRepair)
	mux.HandleFunc("GET /v1/cost", g.handleCost)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /v1/traces", g.handleTraces)
	mux.HandleFunc("POST /v1/faults", g.handleFaultsArm)
	mux.HandleFunc("GET /v1/faults", g.handleFaultsList)
	mux.HandleFunc("DELETE /v1/faults", g.handleFaultsClear)
	mux.HandleFunc("GET /v1/backend", g.handleBackendStatus)
	mux.HandleFunc("POST /v1/backend", g.handleBackendSet)
	return mux
}

// BackendRequest is the POST /v1/backend body: a policy switch.
type BackendRequest struct {
	Policy string `json:"policy"`
}

func (g *Gateway) handleBackendStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, g.BackendStatus())
}

func (g *Gateway) handleBackendSet(w http.ResponseWriter, r *http.Request) {
	var req BackendRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := g.SetBackendPolicy(req.Policy); err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, g.BackendStatus())
}

// Healthz is the /v1/healthz payload.
type Healthz struct {
	Status         string `json:"status"` // "ok" | "degraded"
	DegradedSets   int    `json:"degraded_sets,omitempty"`
	RebuildsActive int64  `json:"rebuilds_active,omitempty"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Healthz{Status: "ok", DegradedSets: g.svc.DegradedSets()}
	if g.repair != nil {
		h.RebuildsActive = g.repair.RebuildsActive()
	}
	if h.DegradedSets > 0 || h.RebuildsActive > 0 {
		h.Status = "degraded"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(h)
		return
	}
	writeJSON(w, h)
}

func (g *Gateway) handleHealthPlatters(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, g.HealthPlatters())
}

func (g *Gateway) handleRepair(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("platter"))
	if err != nil {
		http.Error(w, "need /v1/repair/{platter} with a numeric platter id", http.StatusBadRequest)
		return
	}
	if err := g.RequestRepair(media.PlatterID(id)); err != nil {
		code := http.StatusConflict
		if errors.Is(err, repair.ErrUnknownPlatter) {
			code = http.StatusNotFound
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, map[string]bool{"queued": true})
}

func objectKey(r *http.Request) (account, name string, ok bool) {
	account, name = r.PathValue("account"), r.PathValue("name")
	return account, name, account != "" && name != ""
}

// statusClientClosedRequest is the nginx convention for "the caller
// went away before we answered"; no stdlib constant exists.
const statusClientClosedRequest = 499

// writeErr maps service-layer errors onto HTTP statuses. Every
// retryable status (429 and 503) carries a Retry-After header with the
// server's backoff hint so well-behaved clients pace themselves.
func (g *Gateway) writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, staging.ErrCapacity):
		g.setRetryAfter(w)
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed), errors.Is(err, service.ErrUnavailable), errors.Is(err, faults.ErrInjected):
		g.setRetryAfter(w)
		code = http.StatusServiceUnavailable
	case errors.Is(err, metadata.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		code = statusClientClosedRequest
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// setRetryAfter emits the configured backoff hint. The header is
// formatted as seconds with fractional precision — standard
// delta-seconds for whole values, and our own client understands the
// fractional form tests rely on for fast retry loops.
func (g *Gateway) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.FormatFloat(g.cfg.RetryAfter.Seconds(), 'g', -1, 64))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (g *Gateway) handlePut(w http.ResponseWriter, r *http.Request) {
	account, name, ok := objectKey(r)
	if !ok {
		http.Error(w, "need /v1/objects/{account}/{name}", http.StatusBadRequest)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxObjectBytes))
	if err != nil {
		http.Error(w, "body: "+err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	version, err := g.PutCtx(r.Context(), account, name, data)
	if err != nil {
		g.writeErr(w, err)
		return
	}
	writeJSON(w, map[string]int{"version": version})
}

func (g *Gateway) handleGet(w http.ResponseWriter, r *http.Request) {
	account, name, ok := objectKey(r)
	if !ok {
		http.Error(w, "need /v1/objects/{account}/{name}", http.StatusBadRequest)
		return
	}
	data, err := g.GetCtx(r.Context(), account, name)
	if err != nil {
		g.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (g *Gateway) handleDelete(w http.ResponseWriter, r *http.Request) {
	account, name, ok := objectKey(r)
	if !ok {
		http.Error(w, "need /v1/objects/{account}/{name}", http.StatusBadRequest)
		return
	}
	if err := g.DeleteCtx(r.Context(), account, name); err != nil {
		g.writeErr(w, err)
		return
	}
	writeJSON(w, map[string]bool{"deleted": true})
}

func (g *Gateway) handleFlush(w http.ResponseWriter, r *http.Request) {
	if err := g.FlushCtx(r.Context()); err != nil {
		g.writeErr(w, err)
		return
	}
	writeJSON(w, map[string]bool{"flushed": true})
}

// FaultsRequest is the POST /v1/faults body: structured rules, string
// rules in the faults.ParseRule grammar, or both.
type FaultsRequest struct {
	Rules []faults.Rule `json:"rules,omitempty"`
	Arm   []string      `json:"arm,omitempty"`
}

// FaultsPayload reports the injector state after any mutation.
type FaultsPayload struct {
	Total int64               `json:"total_injected"`
	Rules []faults.RuleStatus `json:"rules"`
}

func (g *Gateway) faultsPayload() FaultsPayload {
	inj := g.Faults()
	p := FaultsPayload{Total: inj.Total(), Rules: inj.Snapshot()}
	if p.Rules == nil {
		p.Rules = []faults.RuleStatus{}
	}
	return p
}

func (g *Gateway) handleFaultsArm(w http.ResponseWriter, r *http.Request) {
	var req FaultsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "body: "+err.Error(), http.StatusBadRequest)
		return
	}
	inj := g.Faults()
	for _, rule := range req.Rules {
		if err := inj.Arm(rule); err != nil {
			http.Error(w, "rule: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	for _, s := range req.Arm {
		if err := inj.ArmString(s); err != nil {
			http.Error(w, "rule: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	writeJSON(w, g.faultsPayload())
}

func (g *Gateway) handleFaultsList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, g.faultsPayload())
}

func (g *Gateway) handleFaultsClear(w http.ResponseWriter, r *http.Request) {
	g.Faults().Clear()
	writeJSON(w, g.faultsPayload())
}

// CostEntry prices one technology on the requested workload.
type CostEntry struct {
	Breakdown costmodel.Breakdown `json:"breakdown"`
	Total     float64             `json:"total"`
	PerTBYear float64             `json:"per_tb_year"`
}

// CostTable2Row is one qualitative dimension of the paper's Table 2.
type CostTable2Row struct {
	Dimension string `json:"dimension"`
	Tape      string `json:"tape"`
	Silica    string `json:"silica"`
}

// CostPayload is the GET /v1/cost response: the §9 TCO comparison of
// tape, nearline HDD, and Silica on an archival workload. Query
// parameters override the default workload: archive_tb, horizon_years,
// read_tb_year, write_tb_year.
type CostPayload struct {
	Workload     costmodel.Workload `json:"workload"`
	Technologies []CostEntry        `json:"technologies"`
	Table2       []CostTable2Row    `json:"table2"`
}

// BuildCostPayload prices wl across the comparison technologies.
// Shared by the HTTP handler and silicactl's offline mode so both
// render the identical comparison.
func BuildCostPayload(wl costmodel.Workload) CostPayload {
	p := CostPayload{Workload: wl}
	for _, tech := range costmodel.Technologies() {
		b := costmodel.Evaluate(tech, wl)
		p.Technologies = append(p.Technologies, CostEntry{
			Breakdown: b,
			Total:     b.Total(),
			PerTBYear: costmodel.CostPerTBYear(b, wl),
		})
	}
	for _, row := range costmodel.BuildTable2().Rows {
		p.Table2 = append(p.Table2, CostTable2Row{
			Dimension: row.Dimension,
			Tape:      row.Tape.String(),
			Silica:    row.Silica.String(),
		})
	}
	return p
}

func (g *Gateway) handleCost(w http.ResponseWriter, r *http.Request) {
	wl := costmodel.DefaultWorkload()
	q := r.URL.Query()
	for key, dst := range map[string]*float64{
		"archive_tb":    &wl.ArchiveTB,
		"horizon_years": &wl.HorizonYears,
		"read_tb_year":  &wl.ReadTBPerYear,
		"write_tb_year": &wl.WriteTBPerYear,
	} {
		s := q.Get(key)
		if s == "" {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 0 {
			http.Error(w, key+": need a non-negative number", http.StatusBadRequest)
			return
		}
		*dst = v
	}
	if wl.HorizonYears <= 0 || wl.ArchiveTB+wl.WriteTBPerYear <= 0 {
		http.Error(w, "workload needs a positive horizon and some bytes", http.StatusBadRequest)
		return
	}
	writeJSON(w, BuildCostPayload(wl))
}

// StatsSnapshot is the /v1/stats payload.
type StatsSnapshot struct {
	Uptime    float64                `json:"uptime_seconds"`
	Counters  Counters               `json:"counters"`
	Latencies map[string]obs.Summary `json:"latencies"`
	Staging   staging.Usage          `json:"staging"`
	Service   service.Stats          `json:"service"`
	Health    repair.Snapshot        `json:"health"`
	Repair    repair.ManagerStats    `json:"repair"`
}

// Snapshot assembles the current stats.
func (g *Gateway) Snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		Uptime:    time.Since(g.start).Seconds(),
		Counters:  g.Counters(),
		Latencies: g.gm.latencies(),
		Staging:   g.svc.StagingUsage(),
		Service:   g.svc.Stats(),
		Health:    g.HealthPlatters(),
	}
	if g.repair != nil {
		snap.Repair = g.repair.Stats()
	}
	return snap
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, g.Snapshot())
}
