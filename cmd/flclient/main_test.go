package main

import (
	"strings"
	"testing"

	"clinfl/internal/core"
)

// TestSiteConfig: the README's two-site run is balanced, eight sites take
// the paper's ratios unless told otherwise, and an explicit -imbalanced
// that the shard count cannot honour is refused with the reason.
func TestSiteConfig(t *testing.T) {
	yes, no := true, false
	base := siteFlags{model: "lstm", maxLen: 24, seed: 1, epochs: 1, lr: 5e-3, train: 640, patients: 8638}
	cases := []struct {
		name       string
		shards     int
		imbalanced *bool
		want       core.Partition
		err        string
	}{
		{"two shards by default", 2, nil, core.PartitionBalanced, ""},
		{"eight shards by default", 8, nil, core.PartitionImbalanced, ""},
		{"eight shards, -imbalanced=false", 8, &no, core.PartitionBalanced, ""},
		{"eight shards, -imbalanced", 8, &yes, core.PartitionImbalanced, ""},
		{"two shards, -imbalanced=false", 2, &no, core.PartitionBalanced, ""},
		{"two shards, -imbalanced", 2, &yes, "", "imbalanced partition requires 8 clients, got 2"},
		{"four shards, -imbalanced", 4, &yes, "", "imbalanced partition requires 8 clients, got 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := base
			f.shards, f.imbalanced = tc.shards, tc.imbalanced
			cfg, err := f.config()
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("config() error %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Partition != tc.want || cfg.Clients != tc.shards {
				t.Fatalf("partition %s over %d clients, want %s over %d", cfg.Partition, cfg.Clients, tc.want, tc.shards)
			}
		})
	}

	// The flags land where the recipe reads them, and the site clips its
	// gradients as every in-process paper site does.
	f := base
	f.shards = 2
	cfg, err := f.config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ModelName != "lstm" || cfg.MaxLen != 24 || cfg.Seed != 1 || cfg.LocalEpochs != 1 || cfg.LR != 5e-3 ||
		cfg.TrainSize != 640 || cfg.EHR.Patients != 8638 || cfg.EHR.Seed != 1 || cfg.ClipNorm != 1 {
		t.Fatalf("config %+v does not carry the flags", cfg)
	}
}
