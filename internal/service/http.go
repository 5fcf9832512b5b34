package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// MutationResult is the response body for accepted mutations.
type MutationResult struct {
	Seq       int64  `json:"seq"`
	Duplicate bool   `json:"duplicate,omitempty"`
	Rounds    int    `json:"epoch_rounds"`
	Converged bool   `json:"converged"`
	Legit     bool   `json:"legit"`
	CheckErr  string `json:"check_error,omitempty"`
	Bound     int    `json:"bound"`
}

// convergeRequest is the body of POST .../converge.
type convergeRequest struct {
	Rounds int    `json:"rounds"`
	Key    string `json:"key,omitempty"`
}

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /varz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Varz())
	})
	mux.HandleFunc("GET /v1/tenants", s.handleListTenants)
	mux.HandleFunc("POST /v1/tenants", s.handleCreateTenant)
	mux.HandleFunc("GET /v1/tenants/{id}", s.withTenant(s.handleStatus))
	mux.HandleFunc("DELETE /v1/tenants/{id}", s.handleDeleteTenant)
	mux.HandleFunc("POST /v1/tenants/{id}/mutations", s.withTenant(s.handleMutation))
	mux.HandleFunc("POST /v1/tenants/{id}/converge", s.withTenant(s.handleConverge))
	mux.HandleFunc("GET /v1/tenants/{id}/snapshot", s.withTenant(s.handleSnapshot))
	mux.HandleFunc("GET /v1/tenants/{id}/membership", s.withTenant(s.handleMembership))
	mux.HandleFunc("GET /v1/tenants/{id}/nodes/{node}", s.withTenant(s.handleNode))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

func (s *Service) withTenant(h func(http.ResponseWriter, *http.Request, *tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, err := s.Tenant(r.PathValue("id"))
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		h(w, r, t)
	}
}

func (s *Service) handleListTenants(w http.ResponseWriter, r *http.Request) {
	limit := queryInt(r, "limit", 100)
	offset := queryInt(r, "offset", 0)
	if limit < 1 {
		limit = 1
	}
	if offset < 0 {
		offset = 0
	}
	ids := s.TenantIDs()
	total := len(ids)
	if offset > total {
		offset = total
	}
	if offset+limit > total {
		limit = total - offset
	}
	page := ids[offset : offset+limit]
	statuses := make([]TenantStatus, 0, len(page))
	for _, id := range page {
		if t, err := s.Tenant(id); err == nil {
			statuses = append(statuses, t.status())
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Total   int            `json:"total"`
		Offset  int            `json:"offset"`
		Tenants []TenantStatus `json:"tenants"`
	}{total, offset, statuses})
}

func (s *Service) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	meta, err := decodeCreateSized(r.Body, r.ContentLength)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return
	}
	t, err := s.CreateTenant(meta)
	switch {
	case err == nil:
		writeJSON(w, http.StatusCreated, t.status())
	case errors.Is(err, errTenantExists):
		writeErr(w, http.StatusConflict, err)
	case errors.Is(err, errTenantCap):
		w.Header().Set("Retry-After", "10")
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, errClosed):
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}

func (s *Service) handleDeleteTenant(w http.ResponseWriter, r *http.Request) {
	err := s.DeleteTenant(r.PathValue("id"))
	switch {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, errTenantNotFound):
		writeErr(w, http.StatusNotFound, err)
	default:
		writeErr(w, http.StatusInternalServerError, err)
	}
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request, t *tenant) {
	writeJSON(w, http.StatusOK, t.status())
}

func (s *Service) handleSnapshot(w http.ResponseWriter, r *http.Request, t *tenant) {
	writeBody(w, t.snapshotBody())
}

func (s *Service) handleMembership(w http.ResponseWriter, r *http.Request, t *tenant) {
	writeBody(w, t.membershipBody())
}

func (s *Service) handleNode(w http.ResponseWriter, r *http.Request, t *tenant) {
	v, err := strconv.Atoi(r.PathValue("node"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("node id: %w", err))
		return
	}
	ni, err := t.node(v)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, ni)
}

func (s *Service) handleMutation(w http.ResponseWriter, r *http.Request, t *tenant) {
	var m Mutation
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return
	}
	// Client-supplied bookkeeping fields are server-owned.
	m.Seq, m.Seed, m.Rounds, m.Stable = 0, 0, 0, false
	if m.Op == OpChaosPanic && !s.opts.EnableChaos {
		writeErr(w, http.StatusForbidden, errors.New("chaos operations are disabled"))
		return
	}
	if m.Op == OpConverge {
		writeErr(w, http.StatusBadRequest, errors.New("use the converge endpoint"))
		return
	}
	s.submit(w, r, t, &command{mut: m, reply: make(chan cmdResult, 1)})
}

func (s *Service) handleConverge(w http.ResponseWriter, r *http.Request, t *tenant) {
	var req convergeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return
	}
	if req.Rounds <= 0 {
		req.Rounds = t.bound + 1
	}
	m := Mutation{Op: OpConverge, Rounds: req.Rounds, Key: req.Key}
	s.submit(w, r, t, &command{mut: m, ctx: r.Context(), reply: make(chan cmdResult, 1)})
}

// submit is the degradation ladder: rate limit (429), quarantine (503),
// bounded queue (503), then wait for the single-writer loop — a client
// that gives up gets 202 while the work still completes and journals.
func (s *Service) submit(w http.ResponseWriter, r *http.Request, t *tenant, cmd *command) {
	if ok, wait := t.limiter.allow(); !ok {
		s.rateLimited.Add(1)
		w.Header().Set("Retry-After", retryAfter(wait))
		writeErr(w, http.StatusTooManyRequests, errors.New("tenant rate limit exceeded"))
		return
	}
	// A dead loop (quarantined or shut down) can never drain the queue;
	// fail fast. The check is the dead channel, not tenant status: a
	// status read would wait on the tenant lock, which a busy epoch may
	// hold, and the fast path must never block.
	select {
	case <-t.dead:
		if q := t.status().Quarantined; q != "" {
			writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("%w: %s", errQuarantined, q))
		} else {
			writeErr(w, http.StatusServiceUnavailable, errClosed)
		}
		return
	default:
	}
	select {
	case t.cmds <- cmd:
	default:
		s.overloaded.Add(1)
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, errors.New("tenant queue full"))
		return
	}
	select {
	case res := <-cmd.reply:
		s.finishSubmit(w, t, res)
	case <-t.dead:
		// The loop replies before it exits, so when both are ready the
		// reply wins: dead alone means the loop died (quarantine or
		// shutdown) with the command still queued; it was never
		// journaled, so the client may retry safely.
		select {
		case res := <-cmd.reply:
			s.finishSubmit(w, t, res)
		default:
			writeErr(w, http.StatusServiceUnavailable, errors.New("tenant loop stopped before processing"))
		}
	case <-r.Context().Done():
		// The client gave up; the loop will still process and journal
		// the command. Report that it is in flight.
		s.accepted.Add(1)
		writeJSON(w, http.StatusAccepted, struct {
			Accepted bool `json:"accepted"`
		}{true})
	}
}

func (s *Service) finishSubmit(w http.ResponseWriter, t *tenant, res cmdResult) {
	if res.Err != nil {
		switch {
		case errors.Is(res.Err, errQuarantined):
			s.panics.Add(1)
			writeErr(w, http.StatusServiceUnavailable, res.Err)
		case errors.Is(res.Err, context.Canceled), errors.Is(res.Err, context.DeadlineExceeded):
			// A truncated converge epoch: journaled with the rounds that
			// actually ran. Report what happened rather than an error.
			writeJSON(w, http.StatusOK, MutationResult{
				Seq: res.Seq, Rounds: res.Rounds, Converged: res.Converged,
				Legit: res.Legit, CheckErr: res.CheckErr, Bound: t.bound,
			})
		default:
			writeErr(w, http.StatusBadRequest, res.Err)
		}
		return
	}
	s.mutations.Add(1)
	writeJSON(w, http.StatusOK, MutationResult{
		Seq:       res.Seq,
		Duplicate: res.Duplicate,
		Rounds:    res.Rounds,
		Converged: res.Converged,
		Legit:     res.Legit,
		CheckErr:  res.CheckErr,
		Bound:     t.bound,
	})
}

func retryAfter(wait time.Duration) string {
	secs := int(wait / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func queryInt(r *http.Request, key string, def int) int {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return def
	}
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeBody writes a 200 response whose JSON body is already encoded.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}
