// Package scenarios embeds the committed scenario specs, so the extension
// experiments and `sae-exp -list` find them wherever the binary runs.
package scenarios

import "embed"

// FS holds every *.yaml spec of this directory.
//
//go:embed *.yaml
var FS embed.FS
