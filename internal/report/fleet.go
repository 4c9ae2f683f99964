package report

// Fleet observability views: the distributed-job waterfall. A cluster run
// records a wall-clock span tree per job (queue wait, lease attempts, retry
// backoff, worker execution); this file renders those trees — embedded in a
// ledger manifest or exported via GET /cluster/v1/trace — as horizontal
// per-job lanes on a shared wall-clock axis, so "where did the time go"
// is one glance: blue queue wait, green committed attempts, red expired
// ones, amber backoff, with the worker's own execution strip nested under
// each attempt. Rendering stays deterministic: identical span sets produce
// byte-identical SVG.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"hwgc/internal/ledger"
	"hwgc/internal/telemetry"
)

// fleetLane is one job's wall-clock story: its label (experiment or job
// ID), trace ID, and every span recorded under that trace.
type fleetLane struct {
	label   string
	traceID string
	spans   []telemetry.Span
}

// spanBucket classifies a span into a palette slot and legend label.
// Coordinator-side spans get the wide bars; worker-side spans ("worker."
// prefixed) render as a nested strip under their attempt.
func spanBucket(s telemetry.Span) (slot int, label string) {
	switch s.Name {
	case "queue.wait":
		return 1, "queue wait"
	case "backoff":
		return 4, "retry backoff"
	case "attempt":
		if s.Attrs["outcome"] == "commit" {
			return 3, "attempt (committed)"
		}
		return 8, "attempt (expired/failed)"
	case "worker.run":
		return 7, "worker execution"
	case "worker.cache.hit":
		return 5, "worker cache hit"
	}
	return 0, ""
}

// Waterfall geometry: lanes stack vertically, so the chart height grows
// with the job count instead of squeezing bars thinner.
const (
	laneH       = 26.0  // vertical room per job lane
	laneBarH    = 13.0  // coordinator-span bar height
	laneStripH  = 5.0   // nested worker-span strip height
	fleetMargin = 120.0 // left margin (job labels are longer than tick text)
)

// spanTitle is the hover tooltip for one bar.
func spanTitle(lane string, s telemetry.Span) string {
	t := fmt.Sprintf("%s: %s %.1f ms", lane, s.Name, float64(s.DurUS)/1000)
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t += fmt.Sprintf(" %s=%s", k, s.Attrs[k])
	}
	return t
}

// waterfall renders the lanes onto a shared relative-ms axis and returns
// the SVG plus the legend buckets actually used.
func waterfall(lanes []fleetLane, title string) string {
	// Time origin: the earliest span start across every lane. The root
	// "job" span covers the whole lifetime and would paint over its
	// children, so it feeds the extent but is not drawn.
	var t0, t1 int64
	first := true
	for _, l := range lanes {
		for _, s := range l.spans {
			if first || s.StartUS < t0 {
				t0 = s.StartUS
			}
			if end := s.StartUS + s.DurUS; first || end > t1 {
				t1 = end
			}
			first = false
		}
	}
	if first {
		return ""
	}
	totalMS := float64(t1-t0) / 1000
	height := marginT + laneH*float64(len(lanes)) + marginB
	plotW := chartW - fleetMargin - marginR
	x := func(us int64) float64 {
		if t1 == t0 {
			return fleetMargin
		}
		return fleetMargin + float64(us-t0)/float64(t1-t0)*plotW
	}

	var sb svgB
	fmt.Fprintf(&sb.b,
		`<svg class="chart" viewBox="0 0 %s %s" role="img" aria-label="%s" font-family="system-ui, -apple-system, 'Segoe UI', sans-serif">`+"\n",
		coord(chartW), coord(height), esc(title))

	// Legend: only the buckets this run exercised, in slot order.
	used := map[int]string{}
	for _, l := range lanes {
		for _, s := range l.spans {
			if slot, label := spanBucket(s); slot != 0 {
				used[slot] = label
			}
		}
	}
	slots := make([]int, 0, len(used))
	for slot := range used {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	lx := fleetMargin
	for _, slot := range slots {
		fmt.Fprintf(&sb.b, `<rect x="%s" y="%s" width="10" height="10" rx="2" fill="var(--series-%d)"/>`+"\n",
			coord(lx), coord(marginT-24), slot)
		sb.text(lx+14, marginT-15, "legend", "start", used[slot])
		lx += 14 + 7.2*float64(len(used[slot])) + 16
	}

	// Vertical gridlines with relative-ms ticks.
	base := height - marginB
	for _, tv := range niceTicks(totalMS, 6) {
		gx := fleetMargin + 0.0
		if totalMS > 0 {
			gx = fleetMargin + tv/totalMS*plotW
		}
		sb.line(gx, marginT, gx, base, "grid")
		sb.text(gx, base+18, "tick", "middle", num(tv))
	}
	sb.line(fleetMargin, base, chartW-marginR, base, "axis")
	sb.text(chartW/2, height-6, "axis-label", "middle", "wall-clock ms since first span")

	for i, l := range lanes {
		top := marginT + laneH*float64(i)
		sb.text(fleetMargin-8, top+laneBarH, "legend", "end", l.label)
		for _, s := range l.spans {
			slot, _ := spanBucket(s)
			if slot == 0 {
				continue // root "job" span and anything unclassified
			}
			w := x(s.StartUS+s.DurUS) - x(s.StartUS)
			if w < 1 {
				w = 1 // zero-duration spans stay visible
			}
			y, h := top+4, laneBarH
			if strings.HasPrefix(s.Name, "worker.") {
				y, h = top+4+laneBarH+1, laneStripH
			}
			sb.rect(x(s.StartUS), y, w, h, fmt.Sprintf("var(--series-%d)", slot), spanTitle(l.label, s))
		}
	}
	return sb.close()
}

// laneTable is the accessibility/table view: per-job wall-clock totals by
// phase, plus attribution.
func laneTable(lanes []fleetLane) string {
	var b strings.Builder
	b.WriteString(`<details class="tbl"><summary>Data table</summary>` + "\n")
	b.WriteString("<table><thead><tr><th>job</th><th>trace</th><th>worker</th><th>queue ms</th><th>run ms</th><th>backoff ms</th><th>attempts</th></tr></thead><tbody>\n")
	for _, l := range lanes {
		var queue, run, backoff float64
		attempts := 0
		worker := ""
		for _, s := range l.spans {
			ms := float64(s.DurUS) / 1000
			switch s.Name {
			case "queue.wait":
				queue += ms
			case "attempt":
				run += ms
				attempts++
				if w := s.Attrs["worker"]; w != "" {
					worker = w
				}
			case "backoff":
				backoff += ms
			case "worker.cache.hit":
				worker += " (cache hit)"
			}
		}
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td></tr>\n",
			esc(l.label), esc(l.traceID), esc(strings.TrimSpace(worker)),
			num(queue), num(run), num(backoff), attempts)
	}
	b.WriteString("</tbody></table></details>\n")
	return b.String()
}

// FleetChart builds the job waterfall from the span trees embedded in a
// manifest's experiment rows. ok is false when no row carries spans (local
// runs, or a cluster run with tracing disabled).
func FleetChart(m *ledger.Manifest) (Chart, bool) {
	var lanes []fleetLane
	for _, e := range m.Experiments {
		if len(e.Spans) == 0 {
			continue
		}
		lanes = append(lanes, fleetLane{label: e.ID, traceID: e.TraceID, spans: e.Spans})
	}
	if len(lanes) == 0 {
		return Chart{}, false
	}
	svg := waterfall(lanes, "Distributed job waterfall")
	return Chart{
		ID:    "fleet-waterfall",
		Title: "Fleet: distributed job waterfall",
		Caption: fmt.Sprintf(
			"Wall-clock lifecycle of %d cluster-dispatched jobs: queue wait, lease attempts (green committed, red expired/failed), retry backoff, and the worker-side execution strip nested under each attempt.",
			len(lanes)),
		SVG:   svg,
		Table: laneTable(lanes),
	}, true
}

// traceDoc mirrors cluster.TraceExport's JSON (the report package stays
// independent of the cluster package — the wire format is the contract).
type traceDoc struct {
	Protocol      string           `json:"protocol"`
	Enabled       bool             `json:"enabled"`
	Spans         []telemetry.Span `json:"spans"`
	SpansDropped  uint64           `json:"spansDropped"`
	Events        []traceEvent     `json:"events"`
	EventsDropped uint64           `json:"eventsDropped"`
}

// traceEvent mirrors cluster.FlightEvent's JSON.
type traceEvent struct {
	Seq      uint64 `json:"seq"`
	AtUS     int64  `json:"atUs"`
	Kind     string `json:"kind"`
	JobID    string `json:"jobId,omitempty"`
	TraceID  string `json:"traceId,omitempty"`
	WorkerID string `json:"workerId,omitempty"`
	LeaseID  string `json:"leaseId,omitempty"`
	Attempt  int    `json:"attempt,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// flightTableMax caps the flight-recorder rows rendered into the HTML (the
// ring itself is already bounded; this keeps huge exports browsable). The
// newest events win — same retention the ring applies.
const flightTableMax = 200

// RenderTrace renders a /cluster/v1/trace export (raw JSON) into a
// self-contained HTML fleet report: the job waterfall grouped by trace ID
// plus the control-plane flight-recorder timeline. source names where the
// export came from (informational only).
func RenderTrace(raw []byte, source string) ([]byte, error) {
	var doc traceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("trace export: %w", err)
	}

	// Group spans into one lane per trace. The flight events name the job
	// behind each trace; fall back to the trace ID when they don't.
	jobOf := map[string]string{}
	for _, ev := range doc.Events {
		if ev.TraceID != "" && ev.JobID != "" {
			jobOf[ev.TraceID] = ev.JobID
		}
	}
	byTrace := map[string][]telemetry.Span{}
	for _, s := range doc.Spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	var lanes []fleetLane
	for traceID, spans := range byTrace {
		label := jobOf[traceID]
		if label == "" {
			label = traceID
		}
		lanes = append(lanes, fleetLane{label: label, traceID: traceID, spans: spans})
	}
	// Deterministic order: by each lane's earliest span start, then trace ID.
	sort.Slice(lanes, func(i, j int) bool {
		si, sj := laneStart(lanes[i]), laneStart(lanes[j])
		if si != sj {
			return si < sj
		}
		return lanes[i].traceID < lanes[j].traceID
	})

	var b strings.Builder
	b.WriteString("<h2>Export</h2>\n<table class=\"meta\"><tbody>\n")
	meta := [][2]string{
		{"Protocol", doc.Protocol},
		{"Span recording", fmt.Sprintf("enabled=%v, %d spans (%d dropped)", doc.Enabled, len(doc.Spans), doc.SpansDropped)},
		{"Flight recorder", fmt.Sprintf("%d events (%d dropped)", len(doc.Events), doc.EventsDropped)},
	}
	if source != "" {
		meta = append(meta, [2]string{"Source", source})
	}
	for _, row := range meta {
		fmt.Fprintf(&b, "<tr><th>%s</th><td>%s</td></tr>\n", esc(row[0]), esc(row[1]))
	}
	b.WriteString("</tbody></table>\n")

	if len(lanes) > 0 {
		writeChart(&b, Chart{
			ID:    "fleet-waterfall",
			Title: "Distributed job waterfall",
			Caption: fmt.Sprintf("Wall-clock lifecycle of %d traced jobs from the coordinator's span buffer.",
				len(lanes)),
			SVG:   waterfall(lanes, "Distributed job waterfall"),
			Table: laneTable(lanes),
		})
	} else {
		b.WriteString(`<p class="notice">No spans in this export. ` +
			`Run the coordinator with span recording enabled (hwgc-serve -trace-spans &gt; 0).</p>` + "\n")
	}

	// Flight-recorder timeline: what the control plane just did, newest
	// capped, oldest-first within the window.
	if len(doc.Events) > 0 {
		events := doc.Events
		skipped := 0
		if len(events) > flightTableMax {
			skipped = len(events) - flightTableMax
			events = events[skipped:]
		}
		b.WriteString("<h2>Control-plane flight recorder</h2>\n")
		if skipped > 0 || doc.EventsDropped > 0 {
			fmt.Fprintf(&b, "<p class=\"muted\">showing the newest %d events (%d older in export, %d overwritten in the ring)</p>\n",
				len(events), skipped, doc.EventsDropped)
		}
		t0 := events[0].AtUS
		b.WriteString("<table><thead><tr><th>seq</th><th>+ms</th><th>kind</th><th>job</th><th>worker</th><th>attempt</th><th>detail</th></tr></thead><tbody>\n")
		for _, ev := range events {
			attempt := ""
			if ev.Attempt > 0 {
				attempt = fmt.Sprintf("%d", ev.Attempt)
			}
			fmt.Fprintf(&b, "<tr><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
				ev.Seq, num(float64(ev.AtUS-t0)/1000), esc(ev.Kind), esc(ev.JobID),
				esc(ev.WorkerID), attempt, esc(ev.Detail))
		}
		b.WriteString("</tbody></table>\n")
	}

	return htmlPage("hwgc fleet trace", "coordinator span buffer + control-plane flight recorder", &b), nil
}

// laneStart is the lane's earliest span start (0 for an empty lane).
func laneStart(l fleetLane) int64 {
	var min int64
	for i, s := range l.spans {
		if i == 0 || s.StartUS < min {
			min = s.StartUS
		}
	}
	return min
}
