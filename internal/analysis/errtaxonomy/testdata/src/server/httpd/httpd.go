// Package httpd exercises errtaxonomy's 500 and sentinel rules on
// turbo-server's handler shape: no net/http, a Response the handler
// fills, and status constants of the package's own.
package httpd

import "errors"

const (
	StatusOK                  = 200
	StatusTooManyRequests     = 429
	StatusInternalServerError = 500
)

var (
	ErrBudgetExhausted = errors.New("budget exhausted")
	ErrStateCorrupt    = errors.New("state corrupt")
)

type Response struct {
	Status int
	Body   []byte
}

type Request struct{ Body []byte }

type Session struct{}

func (s *Session) Answer(q string) (string, error) { return "", nil }

func (s *Session) AnswerPlan(q string) (string, error) { return "", nil }

func writeJSON(w *Response, status int, v any) {}

func naked500(w *Response, r *Request, err error) {
	writeJSON(w, StatusInternalServerError, err) // want `naked 500`
}

func mapped500(w *Response, r *Request, err error) {
	if errors.Is(err, ErrStateCorrupt) {
		writeJSON(w, StatusInternalServerError, err)
		return
	}
	writeJSON(w, StatusOK, nil)
}

func unmappedAnswer(w *Response, s *Session, r *Request) {
	res, err := s.Answer(string(r.Body)) // want `never maps ErrBudgetExhausted`
	if err != nil {
		writeJSON(w, StatusOK, err)
		return
	}
	writeJSON(w, StatusOK, res)
}

func mappedAnswer(w *Response, s *Session, r *Request) {
	res, err := s.Answer(string(r.Body))
	if errors.Is(err, ErrBudgetExhausted) {
		writeJSON(w, StatusTooManyRequests, err)
		return
	}
	writeJSON(w, StatusOK, res)
}

func unmappedAnswerPlan(w *Response, s *Session, r *Request) {
	res, err := s.AnswerPlan(string(r.Body)) // want `never maps ErrBudgetExhausted`
	if err != nil {
		writeJSON(w, StatusOK, err)
		return
	}
	writeJSON(w, StatusOK, res)
}
