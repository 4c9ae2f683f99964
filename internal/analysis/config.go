package analysis

// Config scopes the rules to package sets and names the wire-protocol
// anchors. Production runs use DefaultConfig; the fixture tests build
// configs pointing at testdata packages so every rule is exercised against
// known-bad code.
type Config struct {
	// DetPackages are the deterministic-core import paths: everything that
	// executes between seeding a simulation and emitting its report bytes.
	// The determinism and maporder rules apply here.
	DetPackages map[string]bool
	// SerializationPackages produce ordered output (manifests, Prometheus
	// exposition, HTML reports, wire JSON) from in-memory state. The
	// maporder rule applies here too.
	SerializationPackages map[string]bool
	// Wire anchors the wire-exhaustiveness rule; nil disables it.
	Wire *WireConfig
}

// WireConfig names the syntactic anchors of the hwgc-cluster-v1 contract.
type WireConfig struct {
	// ClusterPath is the package defining the sentinels, the error<->code
	// mapping, the flight recorder, and the span producers.
	ClusterPath string
	// ReportPath is the package whose switches must cover the span names.
	ReportPath string
	// SentinelPrefix selects the package-level error variables ("Err").
	SentinelPrefix string
	// ToCodeFunc / FromCodeFunc are the two directions of the mapping.
	ToCodeFunc, FromCodeFunc string
	// EventType / KindField locate the flight-event kind whose doc comment
	// enumerates the legal kinds.
	EventType, KindField string
	// KindProducers maps the functions that record a lifecycle transition
	// to the index of their kind argument.
	KindProducers map[string]int
	// SpanFunc is the function that derives the coordinator's spans; its
	// doc comment enumerates the legal attempt outcomes.
	SpanFunc string
	// SpanProducers maps span producers — functions, or SpanFunc's local
	// closures — to the index of their span name argument.
	SpanProducers map[string]int
	// SpanSwitchFunc is the report-side classifier whose case clauses must
	// cover every produced span name.
	SpanSwitchFunc string
	// OutcomeCall / OutcomeArg locate the closure inside SpanFunc that
	// closes an attempt, and its outcome argument.
	OutcomeCall string
	OutcomeArg  int
}

// detCorePackages lists the deterministic core. Growing the simulator with
// a new timed package means adding it here (the DefaultConfig test keeps
// the list honest against the module layout).
var detCorePackages = []string{
	"hwgc/internal/sim",
	"hwgc/internal/heap",
	"hwgc/internal/mem",
	"hwgc/internal/vmem",
	"hwgc/internal/dram",
	"hwgc/internal/sweep",
	"hwgc/internal/trace",
	"hwgc/internal/cpu",
	"hwgc/internal/rts",
	"hwgc/internal/swgc",
	"hwgc/internal/tilelink",
	"hwgc/internal/workload",
	"hwgc/internal/experiments",
	"hwgc/internal/resultcache",
	"hwgc/internal/snapshot",
	"hwgc/internal/power",
	"hwgc/internal/cache",
	"hwgc/internal/core",
	"hwgc/internal/concurrent",
}

// serializationPackages produce ordered bytes from unordered state.
var serializationPackages = []string{
	"hwgc/internal/ledger",
	"hwgc/internal/report",
	"hwgc/internal/telemetry",
	"hwgc/internal/cluster",
	"hwgc/internal/service",
}

// DefaultConfig returns the production rule scoping for this repository.
func DefaultConfig() *Config {
	det := map[string]bool{}
	for _, p := range detCorePackages {
		det[p] = true
	}
	ser := map[string]bool{}
	for _, p := range serializationPackages {
		ser[p] = true
	}
	return &Config{
		DetPackages:           det,
		SerializationPackages: ser,
		Wire: &WireConfig{
			ClusterPath:    "hwgc/internal/cluster",
			ReportPath:     "hwgc/internal/report",
			SentinelPrefix: "Err",
			ToCodeFunc:     "codeOf",
			FromCodeFunc:   "sentinelOf",
			EventType:      "FlightEvent",
			KindField:      "Kind",
			KindProducers:  map[string]int{"transition": 1},
			SpanFunc:       "closeSpans",
			SpanProducers:  map[string]int{"span": 1, "leaseSpans": 1},
			SpanSwitchFunc: "spanBucket",
			OutcomeCall:    "attempt",
			OutcomeArg:     0,
		},
	}
}
