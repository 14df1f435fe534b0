package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestParseInts(t *testing.T) {
	cases := []struct {
		in       string
		positive bool
		want     []int
		bad      bool
	}{
		{"", true, nil, false},
		{" 1, 2,4 ", true, []int{1, 2, 4}, false},
		{"0,8", false, []int{0, 8}, false},
		{"0,8", true, nil, true},
		{"-1", true, nil, true},
		{"two", false, nil, true},
	}
	for _, c := range cases {
		got, err := ParseInts(c.in, c.positive)
		if (err != nil) != c.bad || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseInts(%q, %v) = %v, %v; want %v, error %v", c.in, c.positive, got, err, c.want, c.bad)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteJSON(path, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "{\n  \"a\": 1\n}\n" {
		t.Fatalf("WriteJSON wrote %q", data)
	}
	if err := WriteJSON(filepath.Join(path, "nested"), 1); err == nil {
		t.Fatal("WriteJSON under a file path must fail")
	}
}
