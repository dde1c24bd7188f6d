package spear

import (
	"go/types"
	"strings"
	"testing"
)

// configSeamsAllowed names the exported fields of *Config and *Options
// structs under internal/ that no program outside their package sets
// and that stay anyway, each with its reason. A key is
// "pkg.Type.Field".
var configSeamsAllowed = map[string]string{
	"core.Config.ArchiveChunk":       "the archive's small-pane path and the recovery tests' many-chunk windows need chunks far below 512",
	"core.Config.Clock":              "a fake clock for the ProcTime assertions; event time never reads it",
	"spill.Options.QueueBytes":       "a small write-behind queue so the plane and recovery tests block mid-protocol",
	"checkpoint.Config.Now":          "a fake clock for interval triggers and manifest timestamps",
	"checkpoint.Config.AfterPersist": "the post-snapshot, pre-confirm crash point of the recovery tests",
}

// TestEveryConfigFieldIsSet: every exported field of an exported struct
// under internal/ whose name ends in Config or Options is set by a
// non-test file of the module or of benchmark/ outside the package that
// declares it, or has a configSeamsAllowed entry; a knob that nothing
// turns is a constant. A field is set when it is a key of a literal of
// its type, or when a selector that resolves to it is assigned to. An
// allow entry that excuses nothing fails, so the list cannot go stale.
func TestEveryConfigFieldIsSet(t *testing.T) {
	fset, _, pkgs := parseSources(t)
	fields, unset, used := unsetConfigFields(pkgs, configSeamsAllowed)
	for _, f := range unset {
		p := fset.Position(f.pos)
		t.Errorf("%s:%d %s: no program sets it; make it a constant or give configSeamsAllowed a reason", p.Filename, p.Line, f.key)
	}
	for _, p := range allowProblems("configSeamsAllowed", configSeamsAllowed, used) {
		t.Error(p)
	}
	if fields == 0 {
		t.Fatal("found no config fields: the scan no longer sees the source")
	}
}

// TestConfigGuardCatchesPlants runs the scan of TestEveryConfigFieldIsSet
// over a planted package: of its config's fields, the one set only
// inside the package is reported, and so is the one only assigned
// through another package's field of its name; the ones a literal or an
// assignment sets elsewhere are not, and an allow entry for a field that
// is set is stale.
func TestConfigGuardCatchesPlants(t *testing.T) {
	pkgs := plant(t, map[string]string{
		"internal/plant": `package plant
type KnobConfig struct{ Keyed, Assigned, Unset, Shared, Seam int }
func (c *KnobConfig) defaults() { c.Unset = 1 }`,
		"internal/other": `package other
type Knob struct{ Shared int }`,
		"cmd/user": `package main
import (
	"spear/internal/other"
	"spear/internal/plant"
)
func main() {
	c := plant.KnobConfig{Keyed: 1}
	c.Assigned = 2
	var o other.Knob
	o.Shared = 3
}`,
	})
	allowed := map[string]string{"plant.KnobConfig.Seam": "kept", "plant.KnobConfig.Keyed": "stale"}
	fields, unset, used := unsetConfigFields(pkgs, allowed)
	var keys []string
	for _, f := range unset {
		keys = append(keys, f.key)
	}
	const want = "plant.KnobConfig.Unset plant.KnobConfig.Shared"
	if fields != 5 || strings.Join(keys, " ") != want || used["plant.KnobConfig.Keyed"] || !used["plant.KnobConfig.Seam"] {
		t.Errorf("%d fields, unset %v, used %v; want 5, [%s], [plant.KnobConfig.Seam]", fields, keys, used, want)
	}
}

// unsetConfigFields counts the exported fields of exported *Config and
// *Options structs declared under internal/ in pkgs, and returns those
// that no file of another package sets and allowed does not name, and
// the entries of allowed that excuse one of them.
func unsetConfigFields(pkgs []*lintPkg, allowed map[string]string) (fields int, unset []exported, used map[string]bool) {
	_, written := references(pkgs)
	used = map[string]bool{}
	for _, d := range declarations(pkgs) {
		if v, ok := d.obj.(*types.Var); !ok || !v.IsField() || d.public || !strings.HasSuffix(d.typ.Name(), "Config") && !strings.HasSuffix(d.typ.Name(), "Options") {
			continue
		}
		fields++
		elsewhere := false // set by a file of another package
		for dir := range written[d.obj] {
			elsewhere = elsewhere || "spear/"+dir != d.obj.Pkg().Path()
		}
		if elsewhere {
			continue
		}
		if _, ok := allowed[d.key]; ok {
			used[d.key] = true
			continue
		}
		unset = append(unset, d)
	}
	return fields, unset, used
}
