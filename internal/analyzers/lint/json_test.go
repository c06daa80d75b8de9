package lint

import (
	"encoding/json"
	"go/token"
	"path/filepath"
	"reflect"
	"testing"
)

// TestDiagnosticsJSON: findings under the base directory are named
// repo-relative, a name that cannot be made relative is kept, and no
// findings render as an empty array.
func TestDiagnosticsJSON(t *testing.T) {
	dir := t.TempDir()
	data, err := DiagnosticsJSON([]Diagnostic{
		{Pos: token.Position{Filename: filepath.Join(dir, "sub", "a.go"), Line: 10, Column: 2}, Message: "first finding", Analyzer: "hotalloc"},
		{Pos: token.Position{Filename: "c.go"}, Message: "second finding", Analyzer: "lockorder"},
	}, dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []JSONDiagnostic
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := []JSONDiagnostic{
		{File: "sub/a.go", Line: 10, Col: 2, Message: "first finding", Analyzer: "hotalloc"},
		{File: "c.go", Message: "second finding", Analyzer: "lockorder"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}
	if data, err := DiagnosticsJSON(nil, dir); err != nil || string(data) != "[]" {
		t.Fatalf("no findings: %s, %v; want []", data, err)
	}
}
