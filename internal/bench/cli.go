package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// ParseInts parses a comma-separated list of integers, as the bench
// binaries take thread, shard, band and batch sweeps; an empty string is
// an empty list. With positive set, a value <= 0 is an error.
func ParseInts(s string, positive bool) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		if positive && n <= 0 {
			return nil, fmt.Errorf("value %d must be positive", n)
		}
		out = append(out, n)
	}
	return out, nil
}

// WriteJSON writes v to path as indented JSON with a trailing newline.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %v", path, err)
	}
	return nil
}
