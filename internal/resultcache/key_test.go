package resultcache_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"hwgc/internal/cluster"
	"hwgc/internal/core"
	"hwgc/internal/experiments"
	"hwgc/internal/resultcache"
	"hwgc/internal/telemetry"
	"hwgc/internal/workload"
)

// TestKeyGoldenCrossProcess pins the canonical encoding to a hardcoded
// digest: any process, platform, or Go version computing a different hash
// for these inputs would silently invalidate (or worse, alias) every
// shared on-disk cache, so this is a compatibility contract, not a unit
// detail. Update the constant only together with the schemaVersion bump.
func TestKeyGoldenCrossProcess(t *testing.T) {
	type point struct {
		Name  string
		N     int
		Ratio float64
		On    bool
		List  []uint64
		M     map[string]int
	}
	k := resultcache.KeyOf("fig20", uint64(42), point{
		Name: "xalan", N: -3, Ratio: 0.25, On: true,
		List: []uint64{1, 2, 3}, M: map[string]int{"b": 2, "a": 1},
	})
	const golden = "45b31cab1e96d3a0712af666c2a47cf7b32a7adc6c860b890362ae8d3c4bbfb6"
	if k.String() != golden {
		t.Fatalf("canonical key changed:\n got %s\nwant %s", k.String(), golden)
	}
}

// TestKeyFieldOrderInvariant checks that two structs with the same fields
// and values but different declaration order hash identically — the
// encoder sorts fields by name, so source-level reshuffles never
// invalidate caches.
func TestKeyFieldOrderInvariant(t *testing.T) {
	type ab struct {
		A int
		B string
	}
	type ba struct {
		B string
		A int
	}
	k1 := resultcache.KeyOf(ab{A: 7, B: "x"})
	k2 := resultcache.KeyOf(ba{B: "x", A: 7})
	if k1 != k2 {
		t.Fatalf("field order changed the key: %s vs %s", k1, k2)
	}
}

// TestKeyDistinguishesValues spot-checks that different inputs produce
// different keys.
func TestKeyDistinguishesValues(t *testing.T) {
	base := resultcache.KeyOf("runner", uint64(42))
	if resultcache.KeyOf("runner", uint64(43)) == base {
		t.Fatal("seed change did not change the key")
	}
	if resultcache.KeyOf("runner2", uint64(42)) == base {
		t.Fatal("runner change did not change the key")
	}
}

// forEachLeaf visits every settable scalar leaf reachable from v (which
// must be an addressable struct value), recursing through nested structs.
func forEachLeaf(path string, v reflect.Value, fn func(path string, leaf reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.PkgPath != "" {
				continue
			}
			forEachLeaf(path+"."+f.Name, v.Field(i), fn)
		}
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.String:
		fn(path, v)
	}
}

// flip mutates leaf to a different value and returns an undo func.
func flip(leaf reflect.Value) func() {
	old := reflect.ValueOf(leaf.Interface())
	switch leaf.Kind() {
	case reflect.Bool:
		leaf.SetBool(!leaf.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		leaf.SetInt(leaf.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		leaf.SetUint(leaf.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		leaf.SetFloat(leaf.Float() + 1)
	case reflect.String:
		leaf.SetString(leaf.String() + "x")
	}
	return func() { leaf.Set(old) }
}

// TestCellKeyCoversEveryConfigField mutates every scalar field of the full
// system config and of a workload spec, one at a time, and asserts the
// cell key changes each time. Because both the key encoder and this test
// walk the structs by reflection, a newly added config knob can neither be
// forgotten by the key nor by the test.
func TestCellKeyCoversEveryConfigField(t *testing.T) {
	cfg := core.DefaultConfig()
	spec, _ := workload.ByName("avrora")
	keyOf := func() resultcache.Key {
		return resultcache.CellKey("fig15", cfg, spec, 42)
	}
	base := keyOf()

	mutated := 0
	forEachLeaf("Config", reflect.ValueOf(&cfg).Elem(), func(path string, leaf reflect.Value) {
		undo := flip(leaf)
		defer undo()
		mutated++
		if keyOf() == base {
			t.Errorf("mutating %s did not change the cell key (field omitted from canonical encoding?)", path)
		}
	})
	forEachLeaf("Spec", reflect.ValueOf(&spec).Elem(), func(path string, leaf reflect.Value) {
		undo := flip(leaf)
		defer undo()
		mutated++
		if keyOf() == base {
			t.Errorf("mutating %s did not change the cell key (field omitted from canonical encoding?)", path)
		}
	})
	if mutated < 30 {
		t.Fatalf("only %d leaves visited; reflection walk looks broken", mutated)
	}
	if keyOf() != base {
		t.Fatal("undo failed: base key not restored")
	}

	if resultcache.CellKey("fig16", cfg, spec, 42) == base {
		t.Error("runner name did not change the cell key")
	}
	if resultcache.CellKey("fig15", cfg, spec, 43) == base {
		t.Error("seed did not change the cell key")
	}

	// Run-scoped plumbing (progress heartbeat, telemetry hub) rides along
	// with the config and options but never changes results, so it must
	// leave the cell key and the cluster wire form alone.
	hub := telemetry.NewHub(0)
	cfg.Beat, cfg.Tel = &telemetry.Beat{}, hub
	if keyOf() != base {
		t.Error("Config.Beat/Config.Tel changed the cell key")
	}
	o := experiments.QuickOptions()
	bare := cluster.NewJobSpec("fig16", o)
	o.Beat, o.Tel = &telemetry.Beat{}, hub
	withTel := cluster.NewJobSpec("fig16", o)
	if experiments.CellKey("fig16", o) != experiments.CellKey("fig16", experiments.QuickOptions()) {
		t.Error("Options.Tel changed the experiment cell key")
	}
	a, errA := json.Marshal(bare)
	b, errB := json.Marshal(withTel)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Errorf("Options.Tel changed the cluster.JobSpec JSON:\n%s\n%s", a, b)
	}
}
