package lint

// Machine-readable diagnostics: `sadplint -json` emits them as JSON
// for CI artifacts and editor integration.

import (
	"encoding/json"
	"path/filepath"
)

// JSONDiagnostic is the wire form of one diagnostic.
type JSONDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line,omitempty"`
	Col      int    `json:"col,omitempty"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
}

// DiagnosticsJSON renders diagnostics as an indented JSON array (an
// empty slice renders as [], never null). Filenames are made relative
// to baseDir when possible: CI artifacts must not embed absolute
// checkout paths.
func DiagnosticsJSON(diags []Diagnostic, baseDir string) ([]byte, error) {
	out := make([]JSONDiagnostic, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if baseDir != "" {
			if rel, err := filepath.Rel(baseDir, file); err == nil && !filepath.IsAbs(rel) {
				file = filepath.ToSlash(rel)
			}
		}
		out = append(out, JSONDiagnostic{
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
			Analyzer: d.Analyzer,
		})
	}
	return json.MarshalIndent(out, "", "\t")
}
