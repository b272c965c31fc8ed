package ringrpq

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// publicSurface lists every exported identifier of the package: the
// top-level funcs, types, vars and consts of its non-test files, and
// the methods on its exported types as Type.Method. Adding a name
// means adding it here; removing one means deleting it here.
var publicSurface = []string{
	"Builder", "Builder.Add", "Builder.Build", "Builder.Load", "NewBuilder",
	"DB", "DB.Apply", "DB.Clone", "DB.CloseWAL", "DB.Count",
	"DB.DataVersion", "DB.ExplainPattern", "DB.Flush", "DB.Nodes",
	"DB.Predicates", "DB.Query", "DB.QueryFunc", "DB.ResumeSubscription",
	"DB.Save", "DB.Select", "DB.SetCompactionThreshold",
	"DB.SetStandingConfig", "DB.Stats", "DB.String", "DB.Subscribe",
	"DB.SyncStanding", "DB.Unsubscribe",
	"LoadDB", "OpenDurable", "WALConfig",
	"Stats", "IndexStats", "UpdateStats", "WALStats", "StandingStats",
	"ParseExpr", "ParseQuery", "SortRows", "PatternPlan", "TriplePlan",
	"QueryOption", "WithLimit", "WithTimeout", "Solution", "Triple",
	"StandingConfig", "SubscribeRequest", "Subscription", "Delta", "Pair",
	"Service", "NewService", "Service.Batch", "Service.Close",
	"Service.CloseSubscriptions", "Service.Count", "Service.Handler",
	"Service.Query", "Service.Select", "Service.Stats",
	"ServiceConfig", "ServiceStats", "HandlerConfig", "Request", "Result",
	"ErrResumeFuture", "ErrResumeTooOld", "ErrServiceClosed",
	"ErrSubscriberLagged", "ErrSubscriptionClosed", "ErrTimeout",
	"ErrUnknownPredicate", "ErrUnknownSubscription", "ErrUnsupportedOrder",
}

// exportedNames parses the package's non-test files and returns its
// exported identifiers, sorted, in publicSurface's form.
func exportedNames(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var names []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names = append(names, d.Name.Name)
				} else if recv := recvTypeName(d.Recv.List[0].Type); ast.IsExported(recv) {
					names = append(names, recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = append(names, s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	names = slices.DeleteFunc(names, func(n string) bool {
		return !ast.IsExported(n[strings.LastIndexByte(n, '.')+1:])
	})
	slices.Sort(names)
	return names
}

// recvTypeName names a method receiver's base type.
func recvTypeName(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	switch g := x.(type) {
	case *ast.IndexExpr:
		x = g.X
	case *ast.IndexListExpr:
		x = g.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// TestPublicSurface pins the package's exported identifiers to
// publicSurface: an unlisted addition and a listed name that is gone
// both fail.
func TestPublicSurface(t *testing.T) {
	got := exportedNames(t)
	want := slices.Sorted(slices.Values(publicSurface))
	for _, n := range got {
		if _, found := slices.BinarySearch(want, n); !found {
			t.Errorf("exported %s is not in publicSurface", n)
		}
	}
	for _, n := range want {
		if _, found := slices.BinarySearch(got, n); !found {
			t.Errorf("publicSurface lists %s, which is not exported", n)
		}
	}
	t.Logf("%d exported identifiers", len(got))
}
