package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/ccnet/ccnet/internal/canon"
)

// TestWriteResultMatchesEncoder: writeResult writes exactly the bytes
// json.Encoder writes for an Envelope or a ResultLine, on every golden
// report payload and on marshaled strings holding the characters the
// encoder escapes.
func TestWriteResultMatchesEncoder(t *testing.T) {
	goldens, err := filepath.Glob("../*/testdata/*.json.golden")
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no golden payloads (%v)", err)
	}
	var payloads [][]byte
	for _, g := range goldens {
		b, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, bytes.TrimSpace(b))
	}
	escaped, err := json.Marshal(map[string]any{
		"detail": "a<b>c&d\u2028e\u2029f",
		"notes":  []string{"x & y", "<script>", "line\nbreak"},
	})
	if err != nil {
		t.Fatal(err)
	}
	payloads = append(payloads, escaped, []byte(`{}`), []byte(`[]`), []byte(`null`))

	key := canon.MustHash("x")
	for _, p := range payloads {
		for _, cached := range []bool{false, true} {
			for _, k := range []canon.Key{key, ""} {
				var want, got bytes.Buffer
				if err := json.NewEncoder(&want).Encode(Envelope{Cached: cached, Key: string(k), Result: p}); err != nil {
					t.Fatal(err)
				}
				if err := writeResult(&got, "", cached, k, p); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("envelope:\n got %s\nwant %s", got.Bytes(), want.Bytes())
				}

				want.Reset()
				got.Reset()
				if err := json.NewEncoder(&want).Encode(ResultLine{Kind: FrameResult, Cached: cached, Key: string(k), Result: p}); err != nil {
					t.Fatal(err)
				}
				if err := writeResult(&got, FrameResult, cached, k, p); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("result line:\n got %s\nwant %s", got.Bytes(), want.Bytes())
				}
			}
		}
	}
}
