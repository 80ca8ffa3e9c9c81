package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"pphcr"
	"pphcr/internal/durable"
	"pphcr/internal/precompute"
	"pphcr/internal/replicate"
	"pphcr/internal/service"
)

// serverKnobs lists, per configured type, the fields pphcr-server or
// pphcr-router set (from their flags). The benchmark may set these and
// nothing else; defaults_test.go checks each entry against the two
// commands' sources.
var serverKnobs = map[string][]string{
	"pphcr.Config": {"TrainingDocs", "Vocabulary", "Seed", "PlanCacheShards", "PlanTTL",
		"UserShards", "ANNCandidates", "ANNRetrieve", "ANNEf", "ANNProbeEvery"},
	"pphcr.DurabilityOptions":   {"Dir", "Sync", "RetainSegments"},
	"precompute.Config":         {"Workers", "BatchSize", "Now"},
	"service.FeedbackCompactor": {"EventsPerCompaction", "Horizon", "Now"},
	"service.Checkpointer":      {"Interval"},
	"service.Compactor":         nil,
	"replicate.Standby":         nil,
	"replicate.Router":          {"HealthInterval", "HealthTimeout", "FailThreshold", "AckTimeout", "ProxyTimeout", "Logger"},
}

// leaderDurability is the DurabilityOptions of `pphcr-server -wal-sync
// always -retain-wal -data-dir dir`.
func leaderDurability(dir string) pphcr.DurabilityOptions {
	return pphcr.DurabilityOptions{Dir: dir, Sync: durable.SyncAlways, RetainSegments: true}
}

// warmerConfig is the precompute.Config pphcr-server builds.
func warmerConfig(clock func() time.Time) precompute.Config {
	return precompute.Config{Workers: serverWarmWorkers, BatchSize: serverWarmBatch, Now: clock}
}

// setFields names the exported fields of a config struct that are not
// zero (zero means "take the library default").
func setFields(v any) []string {
	rv := reflect.ValueOf(v)
	var out []string
	for i := 0; i < rv.NumField(); i++ {
		if rv.Type().Field(i).IsExported() && !rv.Field(i).IsZero() {
			out = append(out, rv.Type().Field(i).Name)
		}
	}
	return out
}

// changedFields names the exported fields in which a configured value
// differs from a freshly constructed one. Func-valued fields count as
// changed when one side is nil and the other is not.
func changedFields(fresh, used any) []string {
	a, b := reflect.ValueOf(fresh).Elem(), reflect.ValueOf(used).Elem()
	var out []string
	for i := 0; i < a.NumField(); i++ {
		f := a.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		x, y := a.Field(i), b.Field(i)
		if f.Type.Kind() == reflect.Func {
			if x.IsNil() != y.IsNil() {
				out = append(out, f.Name)
			}
			continue
		}
		if !reflect.DeepEqual(x.Interface(), y.Interface()) {
			out = append(out, f.Name)
		}
	}
	return out
}

func disallowed(typ string, fields []string) []string {
	allowed := make(map[string]bool)
	for _, f := range serverKnobs[typ] {
		allowed[f] = true
	}
	var out []string
	for _, f := range fields {
		if !allowed[f] {
			out = append(out, typ+"."+f)
		}
	}
	return out
}

// checkDefaults fails when the benchmark's deployment overrides a
// library default that pphcr-server and pphcr-router leave alone — for
// example the standby's 50 ms poll or the router's health interval.
func checkDefaults(c *cluster) error {
	var bad []string
	bad = append(bad, disallowed("pphcr.Config", setFields(c.cfg))...)
	bad = append(bad, disallowed("pphcr.DurabilityOptions", setFields(leaderDurability(c.leaderDir)))...)
	bad = append(bad, disallowed("precompute.Config", setFields(warmerConfig(c.clock)))...)

	fbc, err := service.NewFeedbackCompactor(c.leader)
	if err != nil {
		return err
	}
	bad = append(bad, disallowed("service.FeedbackCompactor", changedFields(fbc, c.fbc))...)
	ck, err := service.NewCheckpointer(c.leaderDur)
	if err != nil {
		return err
	}
	bad = append(bad, disallowed("service.Checkpointer", changedFields(ck, c.checkpoint))...)
	comp, err := service.NewCompactor(c.leader)
	if err != nil {
		return err
	}
	bad = append(bad, disallowed("service.Compactor", changedFields(comp, c.compactor))...)
	sb, err := replicate.NewStandby(c.follower, filepath.Join(c.baseDir, "defaults-probe"), c.leaderSrv.URL, replicationPrefix)
	if err != nil {
		return err
	}
	bad = append(bad, disallowed("replicate.Standby", changedFields(sb, c.standby))...)
	bad = append(bad, disallowed("replicate.Router", changedFields(replicate.NewRouter(c.topo), c.router))...)
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("benchmark overrides library defaults the server binaries keep: %s", strings.Join(bad, ", "))
	}
	return nil
}
