package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"autoloop/internal/scenario"
)

// Every preset's document must decode and re-marshal to the same bytes:
// the file modagen writes is exactly what modad -scenario will run.
func TestGenerateRoundTrips(t *testing.T) {
	for _, preset := range []string{"small", "midsize", "stress10k"} {
		data, err := generate(preset, 7)
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		spec, err := scenario.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		again, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%s: document changes on a decode/encode round trip", preset)
		}
	}
}

func TestGenerateRejectsUnknownPreset(t *testing.T) {
	if _, err := generate("huge", 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
}
