package orion

import (
	"encoding/json"
	"fmt"
)

// JSON support: Config round-trips through JSON with human-readable enum
// names (the tables in names.go), so simulations can be described in
// config files (see cmd/orion's -config flag).

// LoadConfigJSON parses and validates a Config from JSON. Enum fields
// accept every name in their table ("wormhole" or "wh", "broadcast",
// "bubble", "link-stall", ...) and, for backward compatibility, bare
// integers. The returned configuration has passed
// Config.Validate, so structural mistakes in a config file surface here —
// aggregated, with field-qualified messages — not mid-sweep.
func LoadConfigJSON(data []byte) (Config, error) {
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return Config{}, fmt.Errorf("orion: parsing config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// ConfigJSON renders a Config as indented JSON with string enum names.
func ConfigJSON(cfg Config) ([]byte, error) {
	return json.MarshalIndent(cfg, "", "  ")
}
