//go:build !race

package httpd

import "testing"

// TestEncodeAllocBudget: once a connection's response buffer has grown,
// appending a /query body or a 16-element /query/batch envelope of
// answered statements into it allocates nothing.
func TestEncodeAllocBudget(t *testing.T) {
	resp := QueryResponse{Fraction: 0.0123456789, Count: 24691.3578, Source: "exact-hit", Remaining: 9.80065}
	items := make([]BatchItem, 16)
	for i := range items {
		items[i] = BatchItem{Status: StatusOK, Result: &resp}
	}
	var buf []byte
	allocs := testing.AllocsPerRun(200, func() {
		body, err := appendQueryResponse(buf[:0], &resp)
		if err != nil {
			t.Fatal(err)
		}
		if buf, err = appendBatchResponse(body, items); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encoding 200 bodies allocates %v objects per run, want 0", allocs)
	}
}
