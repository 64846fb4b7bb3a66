// Package server adapts turbo-server's handlers, package httpd, to
// net/http, for in-process callers that hold an http.Handler: the
// benchmark's twin session, and the tests that check the adapter answers
// as the production listener does. turbo-server links httpd alone, and no
// net/http.
package server

import (
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/server/httpd"
)

// Server is an httpd.Server with a net/http face.
type Server struct {
	*httpd.Server
}

// New creates a server over sess; see httpd.New.
func New(sess *core.Session, table string) (*Server, error) {
	s, err := httpd.New(sess, table)
	if err != nil {
		return nil, err
	}
	return &Server{s}, nil
}

// Handler serves each request through httpd's Handle and writes what it
// answers. A body that ends early aborts the request, as the listener
// drops its connection.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var resp httpd.Response
		req := httpd.Request{Method: r.Method, Path: r.URL.Path, Length: r.ContentLength}
		if err := s.Handle(&resp, &req, r.Body); err != nil {
			panic(http.ErrAbortHandler)
		}
		if resp.ContentType != "" {
			w.Header().Set("Content-Type", resp.ContentType)
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(resp.Body)))
		w.WriteHeader(resp.Status)
		_, _ = w.Write(resp.Body)
	})
}

// The wire types, under the names in-process callers know them by.
type (
	QueryRequest       = httpd.QueryRequest
	QueryResponse      = httpd.QueryResponse
	BatchQueryRequest  = httpd.BatchQueryRequest
	BatchQueryResponse = httpd.BatchQueryResponse
	BatchItem          = httpd.BatchItem
	GroupByResponse    = httpd.GroupByResponse
	GroupRow           = httpd.GroupRow
	AppendRequest      = httpd.AppendRequest
	AppendResponse     = httpd.AppendResponse
	BudgetResponse     = httpd.BudgetResponse
	ErrorResponse      = httpd.ErrorResponse
)
