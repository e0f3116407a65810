package artifact_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"streammap/internal/artifact"
)

// forbidden are the compiler-internal packages and the simulator, which
// must never be reachable from an Artifact: neither through the import
// graph of the packages an artifact depends on, nor through the type graph
// of its fields.
var forbidden = []string{
	"streammap/internal/gpusim",
	"streammap/internal/pee",
	"streammap/internal/partition",
	"streammap/internal/pdg",
	"streammap/internal/mapping",
	"streammap/internal/smreq",
	"streammap/internal/driver",
	"streammap/internal/core",
}

// TestNoCompilerInternalImports walks the import statements of package
// artifact and of its internal dependencies (sdf, gpu, topology) and
// asserts none of them imports a compiler-internal package. Together they
// are the full import closure of package artifact, so this pins the
// acceptance property: no pee/partition (or other compiler-internal)
// import is reachable from Artifact.
func TestNoCompilerInternalImports(t *testing.T) {
	dirs := []string{".", "../sdf", "../gpu", "../topology"}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("parsing %s: %v", path, err)
			}
			for _, imp := range f.Imports {
				got := strings.Trim(imp.Path.Value, `"`)
				for _, bad := range forbidden {
					if got == bad {
						t.Errorf("%s imports %s — compiler internals must not be reachable from Artifact", path, bad)
					}
				}
			}
		}
	}
}

// TestArtifactTypeGraphIsSelfContained reflect-walks every type reachable
// from Artifact's fields and asserts each named type lives in package
// artifact or in one of the model packages (sdf, gpu, topology) — never in
// pee, partition, or any other compiler-internal package. This is the
// value-level counterpart of the import check: holding an Artifact never
// holds a live compiler structure.
func TestArtifactTypeGraphIsSelfContained(t *testing.T) {
	allowed := map[string]bool{
		"streammap/internal/artifact": true,
		"streammap/internal/sdf":      true,
		"streammap/internal/gpu":      true,
		"streammap/internal/topology": true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		if pkg := typ.PkgPath(); pkg != "" && !allowed[pkg] {
			t.Errorf("type %s (at %s) lives in %s — not reachable-safe", typ.Name(), path, pkg)
		}
		switch typ.Kind() {
		case reflect.Ptr, reflect.Slice, reflect.Array, reflect.Chan:
			walk(typ.Elem(), path+"/*")
		case reflect.Map:
			walk(typ.Key(), path+"/key")
			walk(typ.Elem(), path+"/val")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Func, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("non-serializable kind %s at %s", typ.Kind(), path)
		}
	}
	walk(reflect.TypeOf(artifact.Artifact{}), "Artifact")
}
