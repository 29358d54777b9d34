package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"asyncft/internal/shard"
)

// serveClients opens the -serve front door over the node's engine.
// Clients POST /submit?stream=ID with the payload as the request body; the
// handler routes the op to its shard (deterministic hash of the stream
// id), long-polls until the op commits, and acks with its (shard, slot,
// index) position as JSON — identical at every party. A full admission
// queue answers 429 immediately (backpressure, never a silent drop); an
// op that misses the run's final slot answers 503. GET /log streams the
// committed ops so far in the same deterministic format the node prints
// on exit. The returned stop function shuts the door down, letting
// in-flight acks flush (the engine has resolved every pending submission
// by the time its Run returns).
func serveClients(id int, addr string, eng *shard.Engine) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve endpoint: %w", err)
	}
	srv := &http.Server{Handler: serveMux(eng)}
	go func() { _ = srv.Serve(ln) }()
	log.Printf("party %d client front door on http://%s (/submit /log)", id, ln.Addr())
	return func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}, nil
}

// serveMux builds the client front door for one serving engine.
func serveMux(eng *shard.Engine) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/submit", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		stream := r.URL.Query().Get("stream")
		payload, err := io.ReadAll(http.MaxBytesReader(w, r.Body, shard.MaxOpPayloadBytes))
		if err != nil {
			http.Error(w, "payload too large", http.StatusRequestEntityTooLarge)
			return
		}
		pos, err := eng.Submit(r.Context(), []byte(stream), payload)
		switch {
		case err == nil:
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]int{
				"shard": pos.Shard, "slot": pos.Slot, "index": pos.Index,
			})
		case errors.Is(err, shard.ErrOverloaded):
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		case errors.Is(err, shard.ErrUncommitted), errors.Is(err, shard.ErrFinished):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		default:
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/log", func(w http.ResponseWriter, r *http.Request) {
		for s := 0; s < eng.Shards(); s++ {
			writeShardLog(w, eng, s)
		}
	})
	return mux
}

// writeShardLog prints one shard's committed ops, position by position —
// derived from committed bytes only, so the listing is bit-identical at
// every party (the e2e test's replication check).
func writeShardLog(w io.Writer, eng *shard.Engine, s int) {
	st := eng.Store(s)
	for k := 0; k < st.Next(); k++ {
		entries, ok := st.Slot(k)
		if !ok {
			return
		}
		for i, op := range shard.SlotOps(entries) {
			fmt.Fprintf(w, "shard[%d] slot=%d index=%d origin=%d seq=%d stream=%q payload=%q\n",
				s, k, i, op.Origin, op.Seq, op.Stream, op.Payload)
		}
	}
}
