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

func writeError(w *Response, status int, kind, msg string) {}

func writeBody(w *Response, status int, body []byte) {}

func naked500(w *Response, r *Request, err error) {
	writeError(w, StatusInternalServerError, "internal", err.Error()) // want `naked 500`
}

func mapped500(w *Response, r *Request, err error) {
	if errors.Is(err, ErrStateCorrupt) {
		writeError(w, StatusInternalServerError, "internal", err.Error())
		return
	}
	writeBody(w, StatusOK, nil)
}

func unmappedAnswer(w *Response, s *Session, r *Request) {
	res, err := s.Answer(string(r.Body)) // want `never maps ErrBudgetExhausted`
	if err != nil {
		writeBody(w, StatusOK, []byte(err.Error()))
		return
	}
	writeBody(w, StatusOK, []byte(res))
}

func mappedAnswer(w *Response, s *Session, r *Request) {
	res, err := s.Answer(string(r.Body))
	if errors.Is(err, ErrBudgetExhausted) {
		writeError(w, StatusTooManyRequests, "exhausted", err.Error())
		return
	}
	writeBody(w, StatusOK, []byte(res))
}

func unmappedAnswerPlan(w *Response, s *Session, r *Request) {
	res, err := s.AnswerPlan(string(r.Body)) // want `never maps ErrBudgetExhausted`
	if err != nil {
		writeBody(w, StatusOK, []byte(err.Error()))
		return
	}
	writeBody(w, StatusOK, []byte(res))
}
