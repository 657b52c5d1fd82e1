package livemon

import (
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// sseEvent is one frame queued to a subscriber: the ring sequence
// number doubles as the SSE event id, so a client that reconnects with
// Last-Event-ID resumes exactly where its stream broke.
type sseEvent struct {
	id   uint64
	typ  string
	data []byte
}

type subscriber struct {
	ch chan sseEvent
}

// subscribe registers a new SSE client and returns the replay backlog
// (ring events past lastID). Replay collection and registration happen
// under one lock acquisition, so no event published in between can be
// missed or duplicated.
func (s *Server) subscribe(lastID uint64) ([]Record, *subscriber) {
	sub := &subscriber{ch: make(chan sseEvent, sseBuffer)}
	s.mu.Lock()
	defer s.mu.Unlock()
	replay := s.ring.EventsSince(lastID)
	s.subs[sub] = struct{}{}
	return replay, sub
}

func (s *Server) unsubscribe(sub *subscriber) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs, sub)
}

// broadcastLocked queues an event to every subscriber without blocking:
// the publisher is the simulation goroutine and must never wait on a
// slow client. A full queue drops the frame and counts the drop — the
// client recovers the gap by reconnecting with Last-Event-ID.
func (s *Server) broadcastLocked(ev sseEvent) {
	for sub := range s.subs {
		select {
		case sub.ch <- ev:
		default:
			s.sseDropped++
		}
	}
}

// handleEvents serves the /events SSE stream: replay of missed events
// first (honoring Last-Event-ID, also accepted as ?last_event_id= for
// curl-style clients), then live alert firings/resolutions, status
// diffs, and progress events as they are published.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// A fresh client starts from the live stream; everything already in
	// the ring is history it did not ask for. Last-Event-ID (or
	// ?last_event_id=) resumes after that id; ?replay=all streams the
	// whole retained backlog first.
	lastID := ^uint64(0)
	idStr := r.Header.Get("Last-Event-ID")
	if idStr == "" {
		idStr = r.URL.Query().Get("last_event_id")
	}
	switch {
	case idStr != "":
		n, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			http.Error(w, "bad Last-Event-ID", http.StatusBadRequest)
			return
		}
		lastID = n
	case r.URL.Query().Get("replay") == "all":
		lastID = 0
	}
	replay, sub := s.subscribe(lastID)
	defer s.unsubscribe(sub)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	for _, rec := range replay {
		if err := writeFrame(w, sseEvent{id: rec.Seq, typ: rec.Kind, data: rec.Data}); err != nil {
			return
		}
	}
	fl.Flush()

	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.closed:
			return
		case ev := <-sub.ch:
			if err := writeFrame(w, ev); err != nil {
				return
			}
			fl.Flush()
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// writeFrame emits one SSE frame. Data is single-line JSON, so the
// one-data-line form is always valid.
func writeFrame(w http.ResponseWriter, ev sseEvent) error {
	_, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.id, ev.typ, ev.data)
	return err
}
