package vetx

import (
	"fmt"
	"go/ast"
	"go/types"
)

// LayeringConfig parameterizes the layering analyzer: which package owns
// the restricted storage types, which methods of those types are the
// protected protocol surface, and which packages form the storage layer
// that may touch it.
type LayeringConfig struct {
	// StoragePath is the import path of the package defining the
	// restricted types.
	StoragePath string
	// Restricted maps type name -> protected method set.
	Restricted map[string]map[string]bool
	// Allowed is the set of import paths permitted to call the protected
	// methods (the storage layer itself plus the engine/txn layer that
	// coordinates it).
	Allowed map[string]bool
}

// DefaultLayeringConfig is the repo's production layering rule: only the
// storage substrate packages and the engine/txn coordination layer may
// drive the pager pin protocol or mutate heaps directly. Everything else
// — the executor, the cartridges, benches, tools — must go through those
// layers (cartridges through SQL server callbacks, the executor through
// read-only Heap accessors), which is exactly the property that gives
// domain indexes transactional semantics "for free" (DESIGN.md §2.5).
func DefaultLayeringConfig() LayeringConfig {
	return LayeringConfig{
		StoragePath: "repro/internal/storage",
		Restricted: map[string]map[string]bool{
			// The full pin protocol: pinning from the wrong layer can
			// bypass lock-manager serialization even if nothing is
			// mutated.
			"Pager": set("Fetch", "NewPage", "WillWrite", "Unpin", "Free", "FlushAll", "Close"),
			// Heap mutations only; Get/Scan/Count stay open for readers
			// like the executor.
			"Heap": set("Insert", "InsertAt", "Update", "Delete", "Truncate", "Drop"),
		},
		Allowed: set(
			"repro/internal/storage",
			"repro/internal/btree",
			"repro/internal/iot",
			"repro/internal/hashidx",
			"repro/internal/loblib",
			"repro/internal/catalog",
			"repro/internal/engine",
			"repro/internal/txn",
		),
	}
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// Layering returns the layering analyzer for a configuration.
func Layering(cfg LayeringConfig) *Analyzer {
	return &Analyzer{
		Name:      "layering",
		Doc:       "only storage-layer packages may call pager/heap protocol methods",
		NeedTypes: true,
		Run:       func(pkg *Package) []Finding { return runLayering(pkg, cfg) },
	}
}

func runLayering(pkg *Package, cfg LayeringConfig) []Finding {
	if cfg.Allowed[pkg.ImportPath] {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selInfo, found := pkg.Info.Selections[sel]
			if !found || selInfo.Kind() != types.MethodVal {
				return true
			}
			named := namedRecv(selInfo.Recv())
			if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != cfg.StoragePath {
				return true
			}
			methods, restrictedType := cfg.Restricted[named.Obj().Name()]
			if !restrictedType || !methods[sel.Sel.Name] {
				return true
			}
			out = append(out, Finding{
				Analyzer: "layering",
				Pos:      pkg.Fset.Position(call.Pos()),
				Message: fmt.Sprintf("%s.%s is storage-layer protocol; %s must go through the engine/storage layer (cartridges via server callbacks)",
					named.Obj().Name(), sel.Sel.Name, pkg.ImportPath),
			})
			return true
		})
	}
	return out
}
