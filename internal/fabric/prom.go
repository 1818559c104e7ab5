package fabric

import (
	"net/http"

	"watchdog/internal/report"
	"watchdog/internal/stats"
)

// WritePromStats renders one FabricStats snapshot as Prometheus
// metric families onto p: the coordinator counters plus the
// per-worker gauges (alive, requests, errors, window percentiles),
// each worker labeled by its normalized address. Within each family,
// workers render in snapshot (registration) order, so the document is
// byte-stable for a stable fleet.
func WritePromStats(p *stats.PromWriter, fs report.FabricStats) {
	p.Counter("watchdog_fabric_cells_sent_total",
		"Cell requests issued to workers, hedges and retries included.",
		nil, float64(fs.CellsSent))
	p.Counter("watchdog_fabric_hedges_total",
		"Cells that got a second racing request after the hedge delay.",
		nil, float64(fs.Hedged))
	p.Counter("watchdog_fabric_retries_total",
		"Cell re-issues after a failed placement round.",
		nil, float64(fs.Retried))
	p.Counter("watchdog_fabric_cache_hits_total",
		"Always 0: the coordinator keeps no cells (the runner it serves does).",
		nil, float64(fs.CacheHits))
	p.Counter("watchdog_fabric_ejections_total",
		"Workers marked dead (live-to-dead edges only).",
		nil, float64(fs.Ejections))
	for _, w := range fs.Workers {
		labels := []stats.Label{{Name: "worker", Value: w.Addr}}
		p.BoolGauge("watchdog_fabric_worker_alive",
			"1 while the worker is routable, 0 while ejected.",
			labels, w.Alive)
		p.Counter("watchdog_fabric_worker_requests_total",
			"Cell requests this worker received.",
			labels, float64(w.Requests))
		p.Counter("watchdog_fabric_worker_errors_total",
			"Cell requests this worker failed (transport or non-200).",
			labels, float64(w.Errors))
		p.Window("watchdog_fabric_worker_latency_window",
			"Observations covered by the worker's percentile gauges.",
			"Exact latency percentiles over the worker's bounded recent-request window.",
			labels, w.Window,
			stats.Quantile{Label: "0.5", Milli: w.P50Milli},
			stats.Quantile{Label: "0.99", Milli: w.P99Milli})
	}
}

// PromHandler returns an http.Handler serving the coordinator's live
// fabric counters as a Prometheus exposition — mount it on the
// coordinator process (watchdog-bench's -metrics-addr does) so a
// scraper can watch a distributed sweep from the outside.
func (c *Coordinator) PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var p stats.PromWriter
		WritePromStats(&p, c.Stats())
		w.Header().Set("Content-Type", stats.PromContentType)
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(p.String()))
	})
}
