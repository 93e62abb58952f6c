package statesync

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"switchpointer/internal/buildinfo"
	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
	"switchpointer/internal/store"
)

// redLights builds and plays the red-lights scenario — a small testbed
// whose host stores end up with real multi-switch records.
func redLights(t *testing.T) *scenario.Testbed {
	t.Helper()
	s, err := scenario.NewRedLights(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Testbed.Run(30 * simtime.Millisecond)
	return s.Testbed
}

// storeJSON canonicalizes a store's full record set for comparison.
func storeJSON(t *testing.T, st *store.RecordStore) string {
	t.Helper()
	raw, err := json.Marshal(st.All())
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// richestAgentIP returns the host holding the most records — the
// interesting bootstrap subject.
func richestAgentIP(tb *scenario.Testbed) netsim.IPv4 {
	var best netsim.IPv4
	n := -1
	for ip, ag := range tb.HostAgents {
		if l := ag.Store.Len(); l > n || (l == n && ip < best) {
			best, n = ip, l
		}
	}
	return best
}

func TestSegmentLogModes(t *testing.T) {
	tb := redLights(t)
	recs := tb.HostAgents[richestAgentIP(tb)].Store.All()
	if len(recs) == 0 {
		t.Fatal("scenario produced no records")
	}
	var buf strings.Builder
	if err := store.EncodeSegment(&buf, recs); err != nil {
		t.Fatal(err)
	}
	payload := []byte(buf.String())
	manifest := store.SegmentManifest{Epochs: simtime.EpochRange{Lo: 0, Hi: 10}, Flows: len(recs), Bytes: len(payload)}

	dir := t.TempDir()
	memLog, err := NewSegmentLog("")
	if err != nil {
		t.Fatal(err)
	}
	dirLog, err := NewSegmentLog(filepath.Join(dir, "cold"))
	if err != nil {
		t.Fatal(err)
	}
	for _, log := range []*SegmentLog{memLog, dirLog} {
		if err := log.WriteSegment(manifest, payload); err != nil {
			t.Fatal(err)
		}
		if err := log.WriteSegment(manifest, payload); err != nil {
			t.Fatal(err)
		}
		if log.Len() != 2 {
			t.Fatalf("Len = %d, want 2", log.Len())
		}
		ms := log.Manifests()
		if len(ms) != 2 || ms[0].Epochs != manifest.Epochs || ms[0].Flows != manifest.Flows || ms[0].Bytes != manifest.Bytes {
			t.Fatalf("Manifests = %+v", ms)
		}
		got := 0
		if err := log.ReadSegment(1, func(r *flowrec.Record) { got++ }); err != nil {
			t.Fatal(err)
		}
		if got != len(recs) {
			t.Fatalf("ReadSegment decoded %d records, want %d", got, len(recs))
		}
		if err := log.ReadSegment(7, func(*flowrec.Record) {}); err == nil {
			t.Fatal("out-of-range ReadSegment succeeded")
		}
	}

	// Reopening the directory resumes the persisted log.
	reopened, err := NewSegmentLog(dirLog.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", reopened.Len())
	}
	got := 0
	if err := reopened.ReadSegment(0, func(r *flowrec.Record) { got++ }); err != nil {
		t.Fatal(err)
	}
	if got != len(recs) {
		t.Fatalf("reopened ReadSegment decoded %d records, want %d", got, len(recs))
	}
}

func TestReadinessHealthz(t *testing.T) {
	rd := NewReadiness(false)
	if rd.Live() || rd.State().String() != "syncing" {
		t.Fatalf("fresh readiness = %v", rd.State())
	}
	rd.AddBootstrap(3, 17)
	rd.AddIngest(5)

	srv := httptest.NewServer(HealthzHandler(rd, func() (int, int) { return 42, 2 }))
	defer srv.Close()

	fetch := func() Health {
		t.Helper()
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	h := fetch()
	want := Health{State: "syncing", ResidentRecords: 42, EvictedSegments: 2,
		BootstrapSegments: 3, BootstrapRecords: 17, IngestBatches: 1, IngestRecords: 5,
		Build: BuildInfo{Version: buildinfo.Version, GoVersion: buildinfo.Go()}}
	if h != want {
		t.Fatalf("healthz = %+v, want %+v", h, want)
	}

	rd.SetLive()
	if h := fetch(); h.State != "live" {
		t.Fatalf("state after SetLive = %q", h.State)
	}

	// A nil readiness (daemon that never bootstraps) reports permanently
	// live; nil stats report zero counts.
	srv2 := httptest.NewServer(HealthzHandler(nil, nil))
	defer srv2.Close()
	resp, err := http.Get(srv2.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h2 Health
	if err := json.NewDecoder(resp.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	if h2.State != "live" || h2.ResidentRecords != 0 {
		t.Fatalf("nil-readiness healthz = %+v", h2)
	}
}

// TestSnapshotBootstrapRoundTrip pulls a live agent's snapshot over HTTP
// into a fresh store and asserts the record sets are byte-identical, plus
// epoch-range addressing.
func TestSnapshotBootstrapRoundTrip(t *testing.T) {
	tb := redLights(t)
	ag := tb.HostAgents[richestAgentIP(tb)]
	srv := httptest.NewServer(HostSnapshotHandler(ag))
	defer srv.Close()

	rd := NewReadiness(false)
	b := &Bootstrapper{Readiness: rd}
	dst := store.New()
	segs, recs, err := b.BootstrapStore(context.Background(), srv.URL, store.EveryEpoch, dst)
	if err != nil {
		t.Fatal(err)
	}
	if recs != ag.Store.Len() || recs == 0 {
		t.Fatalf("bootstrapped %d records, source holds %d", recs, ag.Store.Len())
	}
	if segs == 0 {
		t.Fatal("no segments streamed")
	}
	if got, want := storeJSON(t, dst), storeJSON(t, ag.Store); got != want {
		t.Fatalf("bootstrapped store diverged\n--- source ---\n%s\n--- bootstrapped ---\n%s", want, got)
	}
	if rd.bootRecords.Load() != int64(recs) {
		t.Fatalf("readiness accounted %d records, want %d", rd.bootRecords.Load(), recs)
	}

	// The by-switch index must be rebuilt by Put: same answers per switch.
	for _, sw := range tb.Topo.Switches() {
		if got, want := len(dst.BySwitch(sw.NodeID())), len(ag.Store.BySwitch(sw.NodeID())); got != want {
			t.Fatalf("switch %v: bootstrapped index holds %d records, source %d", sw.NodeID(), got, want)
		}
	}

	// Epoch-range addressing: an impossible window yields an empty pull.
	empty := store.New()
	_, n, err := b.BootstrapStore(context.Background(), srv.URL, simtime.EpochRange{Lo: 100000, Hi: 100001}, empty)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || empty.Len() != 0 {
		t.Fatalf("future-window pull returned %d records", n)
	}

	// Malformed window → 400 surfaces as an error.
	resp, err := http.Get(srv.URL + "?lo=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("half-open window answered %d, want 400", resp.StatusCode)
	}
}

// TestIngestFeed round-trips records through POST /ingest: a live feed into
// an empty agent-backed store, with readiness accounting.
func TestIngestFeed(t *testing.T) {
	tb := redLights(t)
	src := tb.HostAgents[richestAgentIP(tb)]

	// A second, un-played testbed supplies a fresh agent of the same shape.
	s2, err := scenario.NewRedLights(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var dst = s2.Testbed.HostAgents[richestAgentIP(tb)]
	rd := NewReadiness(false)
	srv := httptest.NewServer(IngestHandler(dst, rd))
	defer srv.Close()

	batches, err := FeedStore(context.Background(), nil, srv.URL, src.Store, 2)
	if err != nil {
		t.Fatal(err)
	}
	if batches == 0 {
		t.Fatal("no batches fed")
	}
	if got, want := storeJSON(t, dst.Store), storeJSON(t, src.Store); got != want {
		t.Fatalf("fed store diverged from source")
	}
	if rd.ingestBatches.Load() != int64(batches) || rd.ingestRecords.Load() != int64(src.Store.Len()) {
		t.Fatalf("ingest accounting = %d batches / %d records, want %d / %d",
			rd.ingestBatches.Load(), rd.ingestRecords.Load(), batches, src.Store.Len())
	}

	// Re-feeding is idempotent: later batches wholesale-replace records.
	if _, err := FeedStore(context.Background(), nil, srv.URL, src.Store, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := storeJSON(t, dst.Store), storeJSON(t, src.Store); got != want {
		t.Fatalf("re-fed store diverged from source")
	}

	// GET on ingest is rejected.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest answered %d, want 405", resp.StatusCode)
	}
}

// TestIngestRefusesOversizeBody: a batch over the ingest limit is refused
// with 413, unread, instead of being truncated into a JSON syntax error.
func TestIngestRefusesOversizeBody(t *testing.T) {
	s, err := scenario.NewRedLights(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ag := s.Testbed.HostAgents[richestAgentIP(s.Testbed)]
	r := httptest.NewRequest(http.MethodPost, "/ingest", io.LimitReader(zeros{}, maxIngestBody+1))
	r.ContentLength = maxIngestBody + 1
	w := httptest.NewRecorder()
	IngestHandler(ag, nil).ServeHTTP(w, r)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize ingest status = %d, want 413", w.Code)
	}
	if ag.Store.Len() != 0 {
		t.Fatalf("refused batch stored %d records", ag.Store.Len())
	}
}

// zeros is an endless source of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestColdReadBackHostQuery evicts a live store wholesale into a SegmentLog
// and asserts QueryHeaders transparently recovers the evicted records —
// byte-identical to the pre-eviction answer — while reporting the cold
// accounting, and that non-overlapping segments are skipped undecoded.
func TestColdReadBackHostQuery(t *testing.T) {
	tb := redLights(t)
	ip := richestAgentIP(tb)
	ag := tb.HostAgents[ip]

	var subject netsim.NodeID
	for _, s := range tb.Topo.Switches() {
		if len(ag.Store.BySwitch(s.NodeID())) > 0 {
			subject = s.NodeID()
			break
		}
	}
	window := simtime.EpochRange{Lo: 0, Hi: 1000}

	hot := ag.QueryHeaders(context.Background(), hostagent.HeadersQuery{Switch: subject, Epochs: window})
	if len(hot.Records) == 0 {
		t.Fatal("no hot records to evict")
	}
	if hot.ColdSegments != 0 || hot.ColdRecords != 0 {
		t.Fatalf("hot answer carries cold accounting: %+v", hot)
	}
	hotJSON, _ := json.Marshal(hot.Records)

	// Evict everything into an indexed segment log.
	seglog, err := NewSegmentLog("")
	if err != nil {
		t.Fatal(err)
	}
	ag.Store.SetRetention(store.Retention{HotEpochs: 1, Alpha: tb.Opt.Alpha, Cold: seglog})
	evicted, err := ag.Store.Maintain(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	if evicted == 0 || ag.Store.Len() != 0 {
		t.Fatalf("eviction left %d resident (evicted %d)", ag.Store.Len(), evicted)
	}
	ag.SetColdReader(seglog)

	cold := ag.QueryHeaders(context.Background(), hostagent.HeadersQuery{Switch: subject, Epochs: window})
	coldJSON, _ := json.Marshal(cold.Records)
	if string(coldJSON) != string(hotJSON) {
		t.Fatalf("cold read-back diverged\n--- hot ---\n%s\n--- cold ---\n%s", hotJSON, coldJSON)
	}
	if cold.ColdSegments == 0 || cold.ColdRecords == 0 {
		t.Fatalf("cold answer carries no cold accounting: segments=%d records=%d", cold.ColdSegments, cold.ColdRecords)
	}

	// A window no manifest overlaps is answered without decoding anything.
	miss := ag.QueryHeaders(context.Background(), hostagent.HeadersQuery{Switch: subject, Epochs: simtime.EpochRange{Lo: 500000, Hi: 500001}})
	if len(miss.Records) != 0 || miss.ColdSegments != 0 {
		t.Fatalf("manifest skip failed: %+v", miss)
	}
}
