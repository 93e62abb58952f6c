package statesync

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/rpc"
	"switchpointer/internal/store"
)

// IngestBatch is the live-feed wire form: a batch of full wire-form flow
// records (the JSON form /record answers with) emitted by the
// simulator or by another daemon. Each record wholesale-replaces the
// receiver's record for its flow under store.Put's recency guard
// (LastSeen, then Pkts): re-sending a record is idempotent, the freshest
// version wins regardless of arrival order, and a stale delivery — a
// snapshot segment racing the feed, a retried batch — can never clobber
// newer state.
type IngestBatch struct {
	Records []*flowrec.Record `json:"records"`
}

// maxIngestBody bounds one ingest batch; a larger one is refused with 413.
const maxIngestBody = 64 << 20

// IngestResponse acknowledges one ingest batch.
type IngestResponse struct {
	Accepted int    `json:"accepted"`
	State    string `json:"state"`
}

// IngestHandler serves POST /ingest on a host agent: the live feed a
// bootstrapped daemon switches to after (or while — ingest is safe
// concurrently with bootstrap and with query serving) absorbing a peer
// snapshot. rd, when non-nil, accumulates ingest accounting for /healthz.
func IngestHandler(ag *hostagent.Agent, rd *Readiness) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, ok := rpc.ReadBody(w, r, maxIngestBody)
		if !ok {
			return
		}
		var batch IngestBatch
		if err := json.Unmarshal(body, &batch); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, rec := range batch.Records {
			if rec == nil {
				http.Error(w, "statesync: nil record in ingest batch", http.StatusBadRequest)
				return
			}
			ag.Store.Put(rec)
		}
		if rd != nil {
			rd.AddIngest(len(batch.Records))
		}
		state := StateLive.String()
		if rd != nil {
			state = rd.State().String()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(IngestResponse{Accepted: len(batch.Records), State: state}) //nolint:errcheck
	})
}

// Feed posts records to a host ingest endpoint in batches of batchSize
// (≤ 0 selects 256). It returns how many batches were sent. Records are
// shipped as-is; callers keeping the records afterwards should pass clones.
func Feed(ctx context.Context, client *http.Client, ingestURL string, recs []*flowrec.Record, batchSize int) (batches int, err error) {
	if client == nil {
		client = http.DefaultClient
	}
	if batchSize <= 0 {
		batchSize = 256
	}
	for len(recs) > 0 {
		n := batchSize
		if n > len(recs) {
			n = len(recs)
		}
		body, err := json.Marshal(IngestBatch{Records: recs[:n]})
		if err != nil {
			return batches, fmt.Errorf("statesync: feed: %w", err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ingestURL, bytes.NewReader(body))
		if err != nil {
			return batches, fmt.Errorf("statesync: feed: %w", err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return batches, fmt.Errorf("statesync: feed %s: %w", ingestURL, err)
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return batches, fmt.Errorf("statesync: feed %s: status %d", ingestURL, resp.StatusCode)
		}
		batches++
		recs = recs[n:]
	}
	return batches, nil
}

// FeedStore streams a whole store to a peer's ingest endpoint — the
// catch-up feed a source daemon (or the simulator side of a test) uses to
// bring a bootstrapped replica up to date with records absorbed after the
// snapshot was taken. Clones are taken shard by shard under read locks, so
// the source keeps absorbing and serving while it feeds.
func FeedStore(ctx context.Context, client *http.Client, ingestURL string, st *store.RecordStore, batchSize int) (batches int, err error) {
	err = st.SnapshotShards(store.EveryEpoch, func(recs []*flowrec.Record) error {
		n, err := Feed(ctx, client, ingestURL, recs, batchSize)
		batches += n
		return err
	})
	return batches, err
}
