// Package server exercises errtaxonomy's three rules.
package server

import (
	"errors"
	"http"
)

var (
	ErrBudgetExhausted = errors.New("budget exhausted")
	ErrStateCorrupt    = errors.New("state corrupt")
)

type Session struct{}

func (s *Session) Answer(q string) (string, error) { return "", nil }
func (s *Session) Wait() error                     { return nil }

func writeJSON(w http.ResponseWriter, status int, v any) {}

// Rule 1: http.Error bypasses the taxonomy.

func rawError(w http.ResponseWriter) {
	http.Error(w, "boom", 500) // want `http\.Error bypasses the server's error taxonomy`
}

func rawErrorAllowed(w http.ResponseWriter) {
	//turbo:allow(errtaxonomy) health probe keeps its plain-text contract
	http.Error(w, "unhealthy", 500)
}

// Rule 2: a 500 must fall through some errors.Is mapping in the same
// function, whichever sentinel it tests.

func naked500(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusInternalServerError, err) // want `naked 500`
}

// A plain comparison is not a typed-error mapping: it misses wrapped
// errors.
func compared500(w http.ResponseWriter, err error) {
	if err == ErrBudgetExhausted {
		writeJSON(w, http.StatusTooManyRequests, err)
		return
	}
	writeJSON(w, http.StatusInternalServerError, err) // want `naked 500`
}

func mapped500(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrStateCorrupt) {
		writeJSON(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, nil)
}

func fallThrough500(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrBudgetExhausted) {
		writeJSON(w, http.StatusTooManyRequests, err)
		return
	}
	writeJSON(w, http.StatusInternalServerError, err)
}

// Rule 3: response writers consuming session errors map the documented
// sentinels.

func unmappedAnswer(w http.ResponseWriter, s *Session, q string) {
	res, err := s.Answer(q) // want `never maps ErrBudgetExhausted`
	if err != nil {
		writeJSON(w, http.StatusOK, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func mappedAnswer(w http.ResponseWriter, s *Session, q string) {
	res, err := s.Answer(q)
	if err != nil {
		switch {
		case errors.Is(err, ErrBudgetExhausted):
			writeJSON(w, http.StatusTooManyRequests, err)
		default:
			writeJSON(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// Wait's errors carry no sentinel of their own to map.
func unmappedWait(w http.ResponseWriter, s *Session) {
	err := s.Wait()
	writeJSON(w, http.StatusOK, err)
}

// A non-response function may consume session errors freely: the
// mapping happens in its caller.
func pump(s *Session) error { return s.Wait() }

func answerAllowed(w http.ResponseWriter, s *Session, q string) {
	//turbo:allow(errtaxonomy) a probe whose refusals its caller maps
	res, err := s.Answer(q)
	writeJSON(w, http.StatusOK, err)
	writeJSON(w, http.StatusOK, res)
}
