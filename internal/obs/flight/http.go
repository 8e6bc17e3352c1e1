package flight

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"paso/internal/obs"
)

// Handler serves the time-series ring at /timeseries:
//
//	?last=30s      window: the trailing duration (default: whole ring)
//	?prefix=vsync. filter series by name prefix
//	?names=1       just the series-name index
//
// The response carries the sampling interval and retained bounds so a
// consumer can reason about resolution without out-of-band config.
func (s *Sampler) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if r.URL.Query().Get("names") != "" {
			_ = enc.Encode(struct {
				Names []string `json:"names"`
			}{Names: s.Names()})
			return
		}
		oldest, newest := s.Bounds()
		var from time.Time
		if lastStr := r.URL.Query().Get("last"); lastStr != "" {
			d, err := time.ParseDuration(lastStr)
			if err != nil {
				http.Error(w, "bad last duration: "+err.Error(), http.StatusBadRequest)
				return
			}
			from = newest.Add(-d)
		}
		series := s.Window(from, time.Time{}, r.URL.Query().Get("prefix"))
		_ = enc.Encode(struct {
			IntervalMs int64     `json:"interval_ms"`
			Oldest     time.Time `json:"oldest"`
			Newest     time.Time `json:"newest"`
			Frames     int       `json:"frames"`
			Series     []Series  `json:"series"`
		}{
			IntervalMs: s.Interval().Milliseconds(),
			Oldest:     oldest, Newest: newest,
			Frames: s.Frames(), Series: series,
		})
	})
}

// Handler serves the bundle directory at /flight: with no parameters the
// manifest index; ?id=<bundle> one manifest; ?id=<bundle>&file=<name> the
// raw bundle file (only names the manifest lists, so the handler never
// serves outside the bundle).
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.URL.Query().Get("id")
		file := req.URL.Query().Get("file")
		if id == "" {
			ms, err := ListBundles(r.opts.Dir)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(struct {
				Dir     string     `json:"dir"`
				Bundles []Manifest `json:"bundles"`
			}{Dir: r.opts.Dir, Bundles: ms})
			return
		}
		if strings.ContainsAny(id, "/\\") {
			http.Error(w, "bad bundle id", http.StatusBadRequest)
			return
		}
		m, err := LoadManifest(r.opts.Dir, id)
		if err != nil {
			http.Error(w, "no such bundle: "+id, http.StatusNotFound)
			return
		}
		if file == "" || file == "manifest.json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(m)
			return
		}
		ok := false
		for _, f := range m.Files {
			if f == file {
				ok = true
				break
			}
		}
		if !ok {
			http.Error(w, "bundle has no file "+file, http.StatusNotFound)
			return
		}
		raw, err := os.ReadFile(filepath.Join(r.opts.Dir, id, file))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if strings.HasSuffix(file, ".json") {
			w.Header().Set("Content-Type", "application/json")
		} else {
			w.Header().Set("Content-Type", "application/octet-stream")
		}
		_, _ = w.Write(raw)
	})
}

// PlacementHandler serves the placement view at /placement: the ownership
// timeline folded from o's event ring, the newest owner per group, and
// (when the assignment callback is non-nil) the placement function's
// current assignment. total is the event ring's lifetime count — the
// timeline shares that ring, so Seq gaps show what it has dropped.
func PlacementHandler(o *obs.Obs, assignment func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		total := o.Events().Total()
		edges := Ownership(o.Events().Snapshot())
		var asn any
		if assignment != nil {
			asn = assignment()
		}
		_ = enc.Encode(struct {
			Total      uint64                    `json:"total"`
			Owners     map[string]OwnershipEvent `json:"owners,omitempty"`
			Ownership  []OwnershipEvent          `json:"ownership,omitempty"`
			Assignment any                       `json:"assignment,omitempty"`
		}{Total: total, Owners: owners(edges), Ownership: edges, Assignment: asn})
	})
}
