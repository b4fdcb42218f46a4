package netsim

import (
	"fmt"
	"sort"
	"time"
)

// ConfigSnapshot is a point-in-time capture of every element's parent and
// configuration — the daily configuration snapshots the paper collects to
// infer topology and detect configuration drift (§2.2).
type ConfigSnapshot struct {
	Taken   time.Time
	Entries map[string]SnapshotEntry
}

// SnapshotEntry records one element's state in a snapshot.
type SnapshotEntry struct {
	Parent string
	Config Config
}

// Snapshot captures the network's current state at the given timestamp.
func (n *Network) Snapshot(at time.Time) *ConfigSnapshot {
	s := &ConfigSnapshot{Taken: at, Entries: make(map[string]SnapshotEntry, n.Len())}
	for _, e := range n.elems {
		s.Entries[e.ID] = SnapshotEntry{Parent: e.Parent, Config: e.Config}
	}
	return s
}

// ConfigDiff describes one element whose state differs between snapshots.
type ConfigDiff struct {
	ID     string
	Field  string
	Before string
	After  string
}

func (d ConfigDiff) String() string {
	return fmt.Sprintf("%s: %s %q -> %q", d.ID, d.Field, d.Before, d.After)
}

// Diff compares two snapshots and returns the per-element differences,
// sorted by element ID then field. Elements present in only one snapshot
// are reported with field "presence".
func Diff(a, b *ConfigSnapshot) []ConfigDiff {
	var out []ConfigDiff
	for id, ea := range a.Entries {
		eb, ok := b.Entries[id]
		if !ok {
			out = append(out, ConfigDiff{ID: id, Field: "presence", Before: "present", After: "absent"})
			continue
		}
		if ea.Parent != eb.Parent {
			out = append(out, ConfigDiff{ID: id, Field: "parent", Before: ea.Parent, After: eb.Parent})
		}
		out = append(out, diffConfig(id, ea.Config, eb.Config)...)
	}
	for id := range b.Entries {
		if _, ok := a.Entries[id]; !ok {
			out = append(out, ConfigDiff{ID: id, Field: "presence", Before: "absent", After: "present"})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Field < out[j].Field
	})
	return out
}

func diffConfig(id string, a, b Config) []ConfigDiff {
	var out []ConfigDiff
	add := func(field, before, after string) {
		if before != after {
			out = append(out, ConfigDiff{ID: id, Field: field, Before: before, After: after})
		}
	}
	add("software", a.SoftwareVersion.String(), b.SoftwareVersion.String())
	add("vendor", a.Vendor.String(), b.Vendor.String())
	add("model", a.EquipmentModel.String(), b.EquipmentModel.String())
	add("tilt", fmt.Sprintf("%.2f", a.AntennaTiltDeg), fmt.Sprintf("%.2f", b.AntennaTiltDeg))
	add("power", fmt.Sprintf("%.2f", a.TxPowerDBm), fmt.Sprintf("%.2f", b.TxPowerDBm))
	add("frequency", fmt.Sprintf("%.0f", a.FrequencyMHz), fmt.Sprintf("%.0f", b.FrequencyMHz))
	add("son", fmt.Sprintf("%t", a.SONEnabled), fmt.Sprintf("%t", b.SONEnabled))
	return out
}
