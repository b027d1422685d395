package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"pacds/internal/cds"
	"pacds/internal/distributed"
	"pacds/internal/graph"
	"pacds/internal/topo"
)

// Wire types of the streaming-session API (see internal/topo for the
// subsystem behind them).

// SessionCreateRequest bootstraps a maintained CDS over an initial
// topology. Energy is required for EL1/EL2.
type SessionCreateRequest struct {
	Graph  GraphSpec `json:"graph"`
	Policy string    `json:"policy"`
	Energy []float64 `json:"energy,omitempty"`
}

// SessionEdgeChange is one link event in a delta batch.
type SessionEdgeChange struct {
	A  int  `json:"a"`
	B  int  `json:"b"`
	Up bool `json:"up"`
}

// SessionChangesRequest streams one delta batch into a session: zero or
// more link events plus an optional full energy refresh. An empty batch
// with Energy set is how pure energy drain is reported.
type SessionChangesRequest struct {
	Changes []SessionEdgeChange `json:"changes,omitempty"`
	Energy  []float64           `json:"energy,omitempty"`
}

// SessionStats is the wire form of the cumulative maintenance-protocol
// costs since bootstrap.
type SessionStats struct {
	Rounds        int `json:"rounds"`
	Messages      int `json:"messages"`
	Deliveries    int `json:"deliveries"`
	StatusChanges int `json:"status_changes"`
	Bytes         int `json:"bytes"`
}

// SessionChangeSummary is the aggregated diff covering (since, epoch] —
// the cheap long-poll path: a client holding the gateway set as of
// `since` applies GatewaysAdded/GatewaysRemoved and is current.
type SessionChangeSummary struct {
	SinceEpoch uint64 `json:"since_epoch"`
	// Complete=false means the session's bounded history no longer reaches
	// back to since_epoch; the diff fields are absent and the client must
	// resync from the snapshot's full gateway list.
	Complete        bool  `json:"complete"`
	Batches         int   `json:"batches"`
	EdgesUp         int   `json:"edges_up"`
	EdgesDown       int   `json:"edges_down"`
	EnergyUpdates   int   `json:"energy_updates"`
	MarkerChanges   int   `json:"marker_changes"`
	GatewaysAdded   []int `json:"gateways_added,omitempty"`
	GatewaysRemoved []int `json:"gateways_removed,omitempty"`
}

// SessionResponse is a versioned snapshot of one session. Epoch increments
// on every applied mutation; equal epochs mean identical state.
type SessionResponse struct {
	ID          string       `json:"id"`
	Epoch       uint64       `json:"epoch"`
	Nodes       int          `json:"nodes"`
	Policy      string       `json:"policy"`
	NumGateways int          `json:"num_gateways"`
	Gateways    []int        `json:"gateways"`
	Batches     uint64       `json:"batches"`
	Changes     uint64       `json:"changes"`
	Stats       SessionStats `json:"stats"`
	// MarkerChanges reports how many hosts' markers flipped in the batch
	// just applied (changes responses only).
	MarkerChanges int `json:"marker_changes,omitempty"`
	// FrontierSize is the number of rule slots the session's most recent
	// rule phase re-evaluated (see the incremental maintenance path in
	// package distributed).
	FrontierSize int `json:"frontier_size,omitempty"`
	// Summary is present on GET when the client passed ?since=E.
	Summary *SessionChangeSummary `json:"summary,omitempty"`
}

func sessionResponse(snap *topo.Snapshot, sum *topo.Summary) *SessionResponse {
	resp := &SessionResponse{
		ID:          snap.ID,
		Epoch:       snap.Epoch,
		Nodes:       snap.Nodes,
		Policy:      snap.Policy.String(),
		NumGateways: snap.NumGateways,
		Gateways:    snap.Gateways,
		Batches:     snap.Batches,
		Changes:     snap.Changes,
		Stats: SessionStats{
			Rounds:        snap.Stats.Rounds,
			Messages:      snap.Stats.Messages,
			Deliveries:    snap.Stats.Deliveries,
			StatusChanges: snap.Stats.StatusChanges,
			Bytes:         snap.Stats.Bytes,
		},
		MarkerChanges: snap.MarkerChanges,
		FrontierSize:  snap.FrontierSize,
	}
	if sum != nil {
		resp.Summary = &SessionChangeSummary{
			SinceEpoch:      sum.SinceEpoch,
			Complete:        sum.Complete,
			Batches:         sum.Batches,
			EdgesUp:         sum.EdgesUp,
			EdgesDown:       sum.EdgesDown,
			EnergyUpdates:   sum.EnergyUpdates,
			MarkerChanges:   sum.MarkerChanges,
			GatewaysAdded:   sum.GatewaysAdded,
			GatewaysRemoved: sum.GatewaysRemoved,
		}
	}
	return resp
}

// sessionStatus maps session-manager errors to HTTP statuses; anything
// unrecognized falls through to the generic serving mapping.
func sessionStatus(err error) int {
	switch {
	case errors.Is(err, topo.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, topo.ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, topo.ErrLimit):
		return http.StatusServiceUnavailable
	default:
		return statusFor(err)
	}
}

// handleSessionCreate bootstraps a session. The bootstrap runs the full
// three-phase protocol (O(N) broadcasts), so it goes through the worker
// pool with the same shedding/deadline discipline as /v1/compute.
func (s *Server) handleSessionCreate(ctx context.Context, w http.ResponseWriter, r *http.Request) (int, error) {
	var req SessionCreateRequest
	if err := decodeFast(r, &req, scanSessionCreate); err != nil {
		return http.StatusBadRequest, err
	}
	policy, err := cds.ByName(req.Policy)
	if err != nil {
		return http.StatusBadRequest, err
	}
	g, err := req.Graph.build(s.cfg.MaxNodes)
	if err != nil {
		return http.StatusBadRequest, err
	}
	if policy.NeedsEnergy() && len(req.Energy) != g.NumNodes() {
		return http.StatusBadRequest,
			fmt.Errorf("policy %v needs energy levels for all %d nodes, got %d", policy, g.NumNodes(), len(req.Energy))
	}
	if len(req.Energy) != 0 && len(req.Energy) != g.NumNodes() {
		return http.StatusBadRequest,
			fmt.Errorf("%d energy levels for %d nodes", len(req.Energy), g.NumNodes())
	}
	v, err := s.submit(ctx, "session-bootstrap", func() (any, error) {
		snap, err := s.sessions.Create(g, policy, req.Energy)
		if err != nil {
			return nil, err
		}
		return sessionResponse(snap, nil), nil
	})
	if err != nil {
		return sessionStatus(err), err
	}
	s.writeJSONCtx(ctx, w, http.StatusCreated, v)
	return 0, nil
}

// handleSessionChanges applies one delta batch. Batch size is bounded and
// each link event touches only the affected locality, but the rule phase
// is still O(population), so the work runs on the pool.
func (s *Server) handleSessionChanges(ctx context.Context, w http.ResponseWriter, r *http.Request) (int, error) {
	id := r.PathValue("id")
	var req SessionChangesRequest
	if err := decodeJSON(r, &req); err != nil {
		return http.StatusBadRequest, err
	}
	changes := make([]topo.EdgeChange, len(req.Changes))
	for i, ch := range req.Changes {
		changes[i] = topo.EdgeChange{A: graph.NodeID(ch.A), B: graph.NodeID(ch.B), Up: ch.Up}
	}
	// Stage "" because ApplyCtx records its own finer-grained spans
	// (session-lock-wait, session-apply); a wrapper span would just
	// duplicate their union.
	v, err := s.submit(ctx, "", func() (any, error) {
		snap, err := s.sessions.ApplyCtx(ctx, id, changes, req.Energy)
		if err != nil {
			return nil, err
		}
		return sessionResponse(snap, nil), nil
	})
	if err != nil {
		if errors.Is(err, distributed.ErrStale) {
			return http.StatusConflict, err
		}
		return sessionStatus(err), err
	}
	s.writeJSONCtx(ctx, w, http.StatusOK, v)
	return 0, nil
}

// handleSessionGet returns the current snapshot, bypassing the worker
// pool: reads cost one O(V) gateway copy under a read lock, so polling
// stays cheap even when the pool is saturated with delta batches.
func (s *Server) handleSessionGet(ctx context.Context, w http.ResponseWriter, r *http.Request) (int, error) {
	id := r.PathValue("id")
	var since uint64
	haveSince := false
	if q := r.URL.Query().Get("since"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			return http.StatusBadRequest, fmt.Errorf("bad since epoch %q: %v", q, err)
		}
		since, haveSince = v, true
	}
	snap, sum, err := s.sessions.Get(id, since, haveSince)
	if err != nil {
		return sessionStatus(err), err
	}
	s.writeJSONCtx(ctx, w, http.StatusOK, sessionResponse(snap, sum))
	return 0, nil
}

// handleSessionDelete tears a session down explicitly.
func (s *Server) handleSessionDelete(ctx context.Context, w http.ResponseWriter, r *http.Request) (int, error) {
	if err := s.sessions.Delete(r.PathValue("id")); err != nil {
		return sessionStatus(err), err
	}
	s.writeJSONCtx(ctx, w, http.StatusOK, map[string]string{"status": "deleted"})
	return 0, nil
}

// --- Client methods ---

// CreateSession bootstraps a streaming topology session.
func (c *Client) CreateSession(ctx context.Context, req SessionCreateRequest) (*SessionResponse, error) {
	var resp SessionResponse
	if err := c.call(ctx, http.MethodPost, "/v1/sessions", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SessionChanges streams one delta batch into a session.
func (c *Client) SessionChanges(ctx context.Context, id string, req SessionChangesRequest) (*SessionResponse, error) {
	var resp SessionResponse
	if err := c.call(ctx, http.MethodPost, "/v1/sessions/"+id+"/changes", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Session reads a session snapshot. since < 0 omits the diff; since >= 0
// additionally requests the change summary covering (since, current].
func (c *Client) Session(ctx context.Context, id string, since int64) (*SessionResponse, error) {
	path := "/v1/sessions/" + id
	if since >= 0 {
		path += "?since=" + strconv.FormatInt(since, 10)
	}
	var resp SessionResponse
	if err := c.call(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// DeleteSession tears a session down.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}
