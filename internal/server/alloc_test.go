//go:build !race

package server

import (
	"bytes"
	"net/http"
	"testing"
)

// TestEncodeAllocBudget: once the pool holds a buffer, appending a /query
// body or a 16-element /query/batch envelope of answered statements
// allocates nothing.
func TestEncodeAllocBudget(t *testing.T) {
	resp := QueryResponse{Fraction: 0.0123456789, Count: 24691.3578, Source: "exact-hit", Remaining: 9.80065}
	items := make([]BatchItem, 16)
	for i := range items {
		items[i] = BatchItem{Status: http.StatusOK, Result: &resp}
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf := bufPool.Get().(*bytes.Buffer)
		body, err := appendQueryResponse(buf.AvailableBuffer(), &resp)
		if err != nil {
			t.Fatal(err)
		}
		body, err = appendBatchResponse(body, items)
		if err != nil {
			t.Fatal(err)
		}
		buf.Grow(len(body))
		bufPool.Put(buf)
	})
	if allocs != 0 {
		t.Fatalf("encoding 200 bodies allocates %v objects per run, want 0", allocs)
	}
}
