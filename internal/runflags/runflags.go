// Package runflags holds the run-output flags hwgc-bench and hwgc-sim
// share — telemetry capture and the run manifest — together with the hub
// set-up and output writing behind them, so both tools apply one rule set:
// -report implies -timeseries, and -metrics-out implies recording (its
// JSONL is the recorder's bounded series).
package runflags

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"hwgc/internal/ledger"
	"hwgc/internal/report"
	"hwgc/internal/telemetry"
)

// Flags are the parsed run-output flags.
type Flags struct {
	metricsOut  string
	traceOut    string
	sampleEvery uint64
	ledger      string
	report      string
	timeseries  bool
	points      int
}

// Register declares the run-output flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.metricsOut, "metrics-out", "",
		"write the recorded metric time series (JSONL, bounded by -timeseries-points) to this file")
	fs.StringVar(&f.traceOut, "trace-out", "", "write a Chrome trace_event JSON file (Perfetto-compatible)")
	fs.Uint64Var(&f.sampleEvery, "sample-every", 1024, "telemetry probe interval in cycles")
	fs.StringVar(&f.ledger, "ledger", "", "append a run manifest (see hwgc-report) under this directory")
	fs.StringVar(&f.report, "report", "", "write a self-contained HTML run report to this file (implies -timeseries)")
	fs.BoolVar(&f.timeseries, "timeseries", false, "record bounded per-unit time series into the run manifest")
	fs.IntVar(&f.points, "timeseries-points", 0, "max retained points per recorded series (0 = default 512)")
	return f
}

// Outputs is one run's output plumbing, built from the flags by Open.
type Outputs struct {
	f *Flags
	// Tel is the run's telemetry hub, nil when no telemetry output was
	// requested. Runs attach to it through Options.Tel or Hub.ForRun.
	Tel   *telemetry.Hub
	store *ledger.Store
}

// Open builds the hub the flags ask for and opens the ledger, so a bad
// ledger directory fails before any simulation runs.
func (f *Flags) Open() (*Outputs, error) {
	o := &Outputs{f: f}
	record := f.timeseries || f.report != "" || f.metricsOut != ""
	if record || f.traceOut != "" {
		o.Tel = telemetry.NewHub(f.sampleEvery)
		if f.traceOut != "" {
			o.Tel.EnableTrace()
		}
		if record {
			o.Tel.EnableRecording(f.points)
		}
	}
	if f.ledger != "" {
		store, err := ledger.Open(f.ledger)
		if err != nil {
			return nil, err
		}
		o.store = store
	}
	return o, nil
}

// WantManifest reports whether the run needs a manifest (for the ledger
// and/or the HTML report).
func (o *Outputs) WantManifest() bool { return o.store != nil || o.f.report != "" }

// WriteManifest folds the hub's telemetry and time series into m, appends
// it to the ledger and renders the HTML report, as the flags ask, printing
// where each went to w.
func (o *Outputs) WriteManifest(w io.Writer, m *ledger.Manifest) error {
	m.SnapshotTelemetry(o.Tel)
	m.SnapshotTimeseries(o.Tel)
	var errs []error
	if o.store != nil {
		path, err := o.store.Append(m)
		if err != nil {
			errs = append(errs, err)
		} else {
			fmt.Fprintf(w, "wrote run manifest to %s\n", path)
		}
	}
	if o.f.report != "" {
		data := report.Render(m, "")
		if err := os.WriteFile(o.f.report, data, 0o644); err != nil {
			errs = append(errs, err)
		} else {
			fmt.Fprintf(w, "wrote HTML report to %s (%d bytes)\n", o.f.report, len(data))
		}
	}
	return errors.Join(errs...)
}

// WriteTelemetry prints the hub's summary under header and writes the
// -metrics-out and -trace-out files. A no-op without a hub.
func (o *Outputs) WriteTelemetry(w io.Writer, header string) error {
	if o.Tel == nil {
		return nil
	}
	fmt.Fprintln(w, header)
	if err := o.Tel.WriteSummary(w); err != nil {
		return err
	}
	if o.f.metricsOut != "" {
		if err := writeFile(o.f.metricsOut, o.Tel.WriteSamplesJSONL); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote recorded metric series to %s\n", o.f.metricsOut)
	}
	if o.f.traceOut != "" {
		if err := writeFile(o.f.traceOut, o.Tel.WriteTraceChrome); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d trace events to %s (open in Perfetto / chrome://tracing)\n",
			o.Tel.TraceEventCount(), o.f.traceOut)
	}
	return nil
}

// writeFile streams write into path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
