package liberty

import (
	"embed"
	"fmt"

	"tmi3d/internal/tech"
)

// Pre-characterized 45nm library artifacts, regenerated by cmd/charlib.
//
//go:embed libdata
var libData embed.FS

// loadEmbedded decodes the embedded characterized library for the 45nm node
// and given mode. A missing or undecodable artifact is an error: the
// libraries come from cmd/charlib, never from live characterization.
func loadEmbedded(mode tech.Mode) (*Library, error) {
	name := fmt.Sprintf("libdata/lib45_%s.json", map[tech.Mode]string{
		tech.Mode2D:  "2d",
		tech.ModeTMI: "tmi",
	}[mode])
	data, err := libData.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("liberty: %w (regenerate with go run ./cmd/charlib)", err)
	}
	lib, err := DecodeJSON(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w (regenerate with go run ./cmd/charlib)", name, err)
	}
	return lib, nil
}
