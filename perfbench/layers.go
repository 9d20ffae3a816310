package main

import "strings"

// windowFacts are the benchmark's own measurements of the window that
// per-layer ratios need as a base.
type windowFacts struct {
	secs            float64
	attempted, puts int
	putMB           float64
	clientMeanMs    float64 // mean send-to-completion time seen by the client
	genLateMs       float64
	backendDepthMax int
	failedPlatters  int // platters the repair manager failed during the run
}

// layerMetrics derives the per-layer metrics from the program's own
// telemetry over the window. A metric whose layer did no work in this
// workload reads 0.
//
// silica_gateway_queue_wait_seconds ends where
// silica_gateway_request_seconds starts (at dequeue), so the two are
// disjoint and add up to the server's share of a request.
func layerMetrics(w windowDelta, f windowFacts) map[string]float64 {
	const queue, service = "silica_gateway_queue_wait_seconds", "silica_gateway_request_seconds"
	put, get := lbl("class", "put"), lbl("class", "get")
	decoded := w.sum("silica_codec_sectors_total", lbl("op", "decode"))
	perKSectors := func(tier string) float64 {
		return 1000 * ratio(w.sum("silica_read_recoveries_total", lbl("tier", tier)), decoded)
	}
	flushPhase := func(phase string) float64 {
		return ratio(w.sum("silica_flush_phase_seconds_sum", lbl("phase", phase)), f.putMB)
	}
	serverMs := 1000 * ratio(w.sum(queue+"_sum", nil)+w.sum(service+"_sum", nil), w.sum(service+"_count", nil))
	reads := w.sum("silica_service_reads_total", nil)
	faulted := float64(w.end.Service.PlattersFaulted - w.before.Service.PlattersFaulted)
	written := float64(w.end.Service.PlattersWritten - w.before.Service.PlattersWritten)
	return map[string]float64{
		"gateway.put.queue_wait_p99_ms": 1000 * w.quantile(queue, put, 0.99),
		"gateway.get.queue_wait_p99_ms": 1000 * w.quantile(queue, get, 0.99),
		"gateway.put.service_p50_ms":    1000 * w.quantile(service, put, 0.5),
		"gateway.get.service_p50_ms":    1000 * w.quantile(service, get, 0.5),
		"gateway.http_overhead_mean_ms": f.clientMeanMs - serverMs,
		"gateway.rejected_frac":         ratio(w.sum("silica_gateway_rejected_total", nil), float64(f.attempted)),
		"gateway.flush.count":           w.sum("silica_gateway_flushes_total", nil),
		"gateway.flush.s_per_MB":        ratio(w.sum("silica_gateway_flush_seconds_sum", nil), f.putMB),

		"persist.fsync.per_put":           ratio(w.sum("silica_persist_wal_syncs_total", nil), float64(f.puts)),
		"persist.fsync.p99_ms":            1000 * w.quantile("silica_persist_fsync_seconds", nil, 0.99),
		"persist.wal_bytes_per_user_byte": ratio(w.sum("silica_persist_wal_bytes_total", nil), 1e6*f.putMB),
		"staging.peak_MB":                 w.gauge("silica_staging_peak_bytes", nil) / 1e6,

		"service.flush.encode_s_per_MB":            flushPhase("encode"),
		"service.flush.burn_s_per_MB":              flushPhase("burn"),
		"service.flush.verify_s_per_MB":            flushPhase("verify"),
		"service.flush.publish_s_per_MB":           flushPhase("publish"),
		"service.platters_faulted_frac":            ratio(faulted, faulted+written),
		"service.reads.durable_frac":               ratio(w.sum("silica_service_reads_total", lbl("source", "durable")), reads),
		"service.recoveries.sector_per_1k_sectors": perKSectors("sector"),
		"service.recoveries.track_per_1k_sectors":  perKSectors("track"),
		"service.recoveries.set_per_1k_sectors":    perKSectors("set"),

		"codec.encode_us_per_sector": 1e6 * w.mean("silica_codec_encode_seconds", nil),
		"codec.decode_us_per_sector": 1e6 * w.mean("silica_codec_decode_seconds", nil),
		"codec.encode_sectors":       w.sum("silica_codec_sectors_total", lbl("op", "encode")),
		"codec.decode_sectors":       decoded,
		"codec.token_misses":         w.sum("silica_codec_token_misses_total", nil),

		"repair.scrub_sectors_per_s": ratio(w.sum("silica_repair_scrub_sectors_total", nil), f.secs),
		"repair.platters_failed":     float64(f.failedPlatters),

		"backend.mech_p50_ms":     1000 * w.quantile("silica_backend_mech_seconds", lbl("op", "read"), 0.5),
		"backend.mech_p99_ms":     1000 * w.quantile("silica_backend_mech_seconds", lbl("op", "read"), 0.99),
		"backend.queue_depth_max": float64(f.backendDepthMax),
		"gen.late_p99_ms":         f.genLateMs,
	}
}

// layerUnit names a per-layer metric's unit from its suffix.
func layerUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_us_per_sector", "us"}, {"_us_per_track", "us"}, {"_us_per_KB", "us/KB"},
		{"s_per_MB", "s/MB"}, {"_per_1k_sectors", "count"}, {"_per_s", "1/s"},
		{"_ms", "ms"}, {"_MB", "MB"}, {"_frac", "1"}, {"_lo", "1"}, {"_hi", "1"}, {"_per_user_byte", "1"},
		{"_per_put", "count"}, {"_per_sector", "count"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}
