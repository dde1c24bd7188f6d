package spear

import (
	"go/ast"
	"go/parser"
	"go/token"
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
// its type written pkg.Type{…}, or when a selector of its name is
// assigned to. Without a type checker, x.F = v could be any struct's F,
// so an assignment counts for every config field of that name declared
// in another package: a field that shares its name with one assigned
// elsewhere passes unset. spe.Config.QueueSize did so, while it
// existed, because transport's decoder assigned JobSpec.QueueSize.
// Literals whose type is elided ([]pkg.Config{{…}}) are not seen. An
// allow entry that excuses nothing fails, so the list cannot go stale.
func TestEveryConfigFieldIsSet(t *testing.T) {
	fset, files := parseSources(t)
	fields, unset, used := unsetConfigFields(files, configSeamsAllowed)
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
// inside the package is reported, the ones a literal or an assignment
// sets elsewhere are not, and an allow entry for a field that is set
// is stale.
func TestConfigGuardCatchesPlants(t *testing.T) {
	fset := token.NewFileSet()
	var files []sourceFile
	for dir, src := range map[string]string{
		"internal/plant": `package plant
type KnobConfig struct{ Keyed, Assigned, Unset, Seam int }
func (c *KnobConfig) defaults() { c.Unset = 1 }`,
		"cmd/user": `package main
import "spear/internal/plant"
func main() {
	c := plant.KnobConfig{Keyed: 1}
	c.Assigned = 2
}`,
	} {
		f, err := parser.ParseFile(fset, dir+"/x.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, sourceFile{dir: dir, f: f})
	}
	allowed := map[string]string{"plant.KnobConfig.Seam": "kept", "plant.KnobConfig.Keyed": "stale"}
	fields, unset, used := unsetConfigFields(files, allowed)
	var keys []string
	for _, f := range unset {
		keys = append(keys, f.key)
	}
	if fields != 4 || strings.Join(keys, " ") != "plant.KnobConfig.Unset" || used["plant.KnobConfig.Keyed"] || !used["plant.KnobConfig.Seam"] {
		t.Errorf("%d fields, unset %v, used %v; want 4, [plant.KnobConfig.Unset], [plant.KnobConfig.Seam]", fields, keys, used)
	}
}

// configField is a config struct's field: "pkg.Type.Field" and where
// it is declared.
type configField struct {
	key string
	pos token.Pos
}

// unsetConfigFields counts the exported fields of exported *Config and
// *Options structs declared under internal/ in files, and returns those
// that no file of another package sets and allowed does not name, and
// the entries of allowed that excuse one of them.
func unsetConfigFields(files []sourceFile, allowed map[string]string) (fields int, unset []configField, used map[string]bool) {
	pkgName := map[string]string{} // dir → package name
	for _, fl := range files {
		pkgName[fl.dir] = fl.f.Name.Name
	}
	keyed := map[string]bool{}               // dir.Type.Field, a key of a pkg.Type{…} literal
	assigned := map[string]map[string]bool{} // Field → dirs whose files assign a selector of that name
	for _, fl := range files {
		imports := spearImports(fl.f, pkgName)
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if !ok {
					break
				}
				x, ok := sel.X.(*ast.Ident)
				if !ok {
					break
				}
				dir, ok := imports[x.Name]
				if !ok {
					break
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							keyed[dir+"."+sel.Sel.Name+"."+k.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						if assigned[sel.Sel.Name] == nil {
							assigned[sel.Sel.Name] = map[string]bool{}
						}
						assigned[sel.Sel.Name][fl.dir] = true
					}
				}
			}
			return true
		})
	}

	used = map[string]bool{}
	for _, fl := range files {
		if !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		for _, d := range fl.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") && !strings.HasSuffix(ts.Name.Name, "Options") {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						if !id.IsExported() {
							continue
						}
						fields++
						if keyed[fl.dir+"."+ts.Name.Name+"."+id.Name] || assignedElsewhere(assigned[id.Name], fl.dir) {
							continue
						}
						key := fl.f.Name.Name + "." + ts.Name.Name + "." + id.Name
						if _, ok := allowed[key]; ok {
							used[key] = true
							continue
						}
						unset = append(unset, configField{key, id.Pos()})
					}
				}
			}
		}
	}
	return fields, unset, used
}

// assignedElsewhere reports whether dirs names a directory other than dir.
func assignedElsewhere(dirs map[string]bool, dir string) bool {
	for d := range dirs {
		if d != dir {
			return true
		}
	}
	return false
}
