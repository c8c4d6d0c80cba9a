package server

import (
	"errors"
	"net/http"
	"net/url"
	"strconv"

	"dyntreecast/internal/campaign"
	"dyntreecast/internal/store"
)

// This file is the query side of the results warehouse (DESIGN.md §3h).
// With Options.Store set the daemon gains read endpoints over every
// campaign the warehouse has ingested — including campaigns from earlier
// daemon lifetimes and offline backfills:
//
//	GET /results            paginated rows; filters campaign, adversary,
//	                        goal, n, nmin, nmax; limit + cursor paging
//	GET /results/campaigns  ingested campaigns with cell counts and pins
//	GET /results/diff       ?a=&b= content-address diff of two campaigns
//	GET /results/curves     measured bound curves joined against exact
//	                        gamesolver values — solved implicitly for
//	                        small n, loaded from warehoused solve tables
//	                        (store solvetables/, written by exact-solver
//	                        -table) for larger n; filters adversary,
//	                        goal, campaign
//
// Every finished campaign the daemon runs is auto-ingested under its run
// id, so /results is eventually consistent with /campaigns without any
// extra client step.

// mountResults registers the warehouse endpoints; called by New only
// when a store is configured.
func (s *Server) mountResults(mux *http.ServeMux) {
	mux.HandleFunc("GET /results", s.afterIngests(s.handleResults))
	mux.HandleFunc("GET /results/campaigns", s.afterIngests(s.handleResultCampaigns))
	mux.HandleFunc("GET /results/diff", s.afterIngests(s.handleResultsDiff))
	mux.HandleFunc("GET /results/curves", s.afterIngests(s.handleResultsCurves))
}

// afterIngests makes a /results handler wait, bounded by the request's
// context, until every ingest announced on the warehouse has finished. A
// campaign reports done before its auto-ingest lands, so without the
// wait a client that saw "done" could query before its cells are there.
func (s *Server) afterIngests(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if s.opts.Store.AwaitIngests(req.Context()) != nil {
			return // the client is gone
		}
		h(w, req)
	}
}

// intParam parses an optional non-negative integer query parameter,
// returning 0 when absent.
func intParam(q url.Values, name string) (int, error) {
	v := q.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, errors.New("parameter " + name + " must be a non-negative integer")
	}
	return n, nil
}

func (s *Server) handleResults(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	f := store.Filter{
		Campaign:  q.Get("campaign"),
		Adversary: q.Get("adversary"),
		Goal:      q.Get("goal"),
		Cursor:    q.Get("cursor"),
	}
	var err error
	for _, p := range []struct {
		name string
		dst  *int
	}{{"n", &f.N}, {"nmin", &f.NMin}, {"nmax", &f.NMax}, {"limit", &f.Limit}} {
		if *p.dst, err = intParam(q, p.name); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	page, err := s.opts.Store.Query(f)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, store.ErrNotFound) {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, page)
}

func (s *Server) handleResultCampaigns(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, s.opts.Store.Campaigns())
}

func (s *Server) handleResultsDiff(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	a, b := q.Get("a"), q.Get("b")
	if a == "" || b == "" {
		writeError(w, http.StatusBadRequest, "diff needs both a and b campaign ids")
		return
	}
	d, err := s.opts.Store.Diff(a, b)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, store.ErrNotFound) {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, d)
}

func (s *Server) handleResultsCurves(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	writeJSON(w, http.StatusOK, s.opts.Store.Curves(store.CurveFilter{
		Adversary: q.Get("adversary"),
		Goal:      q.Get("goal"),
		Campaign:  q.Get("campaign"),
	}))
}

// ingestOutcome indexes a finished campaign into the warehouse under its
// run id. Failures are logged, never fatal: the campaign's own artifact
// is already served by /campaigns/{id}, and a cancelled campaign (no
// complete cells in the cache) simply is not warehouse material yet.
func (s *Server) ingestOutcome(id string, out *campaign.Outcome) {
	if s.opts.Store == nil || out == nil {
		return
	}
	n, err := s.opts.Store.IngestOutcome(id, out)
	if err != nil {
		s.logf("campaign %s: not ingested into results store: %v", id, err)
		return
	}
	s.logf("campaign %s: %d cells ingested into results store", id, n)
}
