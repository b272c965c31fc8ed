package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// A request body is one JSON value, read whole and bounded by
// HandlerConfig.MaxBodyBytes. /query and /select bodies in the shape
// clients send — lower-case keys the type knows, each at most once,
// strings of printable ASCII without escapes, an integer limit, true
// or false — are read by the scanner below without reflection. Any
// other body, and every other endpoint's, goes to json.Unmarshal, whose
// result the scanner's equals wherever it accepts (FuzzDecodeRequest).

// decodeBody reads the size-bounded request body to its end and decodes
// it into v, writing the error response (413 for an oversized body, 400
// for anything but one JSON value) itself.
func (h *handler) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	b := bodyPool.Get().(*body)
	defer b.release()
	_, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, h.cfg.MaxBodyBytes))
	if err == nil && !scanRequest(b.Bytes(), v) {
		err = json.Unmarshal(b.Bytes(), v)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		}
		return err
	}
	return nil
}

// scanRequest fills v, a *QueryJSON or *SelectJSON, from data and
// reports true when data has the plain shape; it leaves v untouched and
// reports false otherwise.
func scanRequest(data []byte, v any) bool {
	switch v := v.(type) {
	case *QueryJSON:
		var q QueryJSON
		s := scanner{data: data}
		for s.member() {
			var ok bool
			switch string(s.key) {
			case "subject":
				q.Subject, ok = s.str()
			case "expr":
				q.Expr, ok = s.str()
			case "object":
				q.Object, ok = s.str()
			case "limit":
				q.Limit, ok = s.limit()
			case "timeout":
				q.Timeout, ok = s.str()
			case "count":
				q.Count, ok = s.boolean()
			case "profile":
				q.Profile, ok = s.boolean()
			}
			if !ok {
				return false
			}
		}
		if s.done() {
			*v = q
			return true
		}
	case *SelectJSON:
		var q SelectJSON
		s := scanner{data: data}
		for s.member() {
			var ok bool
			switch string(s.key) {
			case "query":
				q.Query, ok = s.str()
			case "limit":
				q.Limit, ok = s.limit()
			case "timeout":
				q.Timeout, ok = s.str()
			case "count":
				q.Count, ok = s.boolean()
			case "profile":
				q.Profile, ok = s.boolean()
			}
			if !ok {
				return false
			}
		}
		if s.done() {
			*v = q
			return true
		}
	}
	return false
}

// scanner walks one JSON object whose keys are plain strings, each at
// most once: member steps to the next key, the caller reads its value,
// and once member reports false, done tells whether the object was
// well formed and is all the input but whitespace.
type scanner struct {
	data []byte
	i    int
	key  []byte
	// keys holds the keys read so far; no request type has more.
	keys   [8][]byte
	n      int
	closed bool // the object's '}' was read
	bad    bool
}

// member consumes the separator ahead, '{' or ',', and the next key
// with its colon, and reports whether there is one.
func (s *scanner) member() bool {
	if s.closed || s.bad {
		return false
	}
	if s.i == 0 { // the first call opens the object
		if !s.next('{') {
			s.bad = true
			return false
		}
		if s.next('}') {
			s.closed = true
			return false
		}
	} else if s.next('}') {
		s.closed = true
		return false
	} else if !s.next(',') {
		s.bad = true
		return false
	}
	key, ok := s.raw()
	if !ok || !s.next(':') || s.n == len(s.keys) {
		s.bad = true
		return false
	}
	for _, k := range s.keys[:s.n] {
		if string(k) == string(key) {
			s.bad = true // a repeated key: json.Unmarshal keeps the last
			return false
		}
	}
	s.keys[s.n], s.key = key, key
	s.n++
	return true
}

// done reports whether the object closed and nothing but whitespace
// follows it.
func (s *scanner) done() bool {
	s.space()
	return s.closed && !s.bad && s.i == len(s.data)
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c, after whitespace, if it comes next.
func (s *scanner) next(c byte) bool {
	s.space()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// raw consumes a string of printable ASCII without quote or backslash
// and returns its bytes between the quotes.
func (s *scanner) raw() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for j := s.i; j < len(s.data); j++ {
		switch c := s.data[j]; {
		case c == '"':
			str := s.data[s.i:j]
			s.i = j + 1
			return str, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// str consumes a plain string value.
func (s *scanner) str() (string, bool) {
	b, ok := s.raw()
	return string(b), ok
}

// boolean consumes true or false.
func (s *scanner) boolean() (bool, bool) {
	s.space()
	rest := s.data[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false, true
	}
	return false, false
}

// limit consumes an integer in JSON's form (no fraction or exponent)
// that fits an int.
func (s *scanner) limit() (*int, bool) {
	s.space()
	neg := s.i < len(s.data) && s.data[s.i] == '-'
	if neg {
		s.i++
	}
	bound := uint64(1)<<(strconv.IntSize-1) - 1
	if neg {
		bound++
	}
	start := s.i
	var n uint64
	for ; s.i < len(s.data) && '0' <= s.data[s.i] && s.data[s.i] <= '9'; s.i++ {
		d := uint64(s.data[s.i] - '0')
		if n > (bound-d)/10 {
			return nil, false
		}
		n = n*10 + d
	}
	// JSON has no leading zeros.
	if s.i == start || (s.data[start] == '0' && s.i > start+1) {
		return nil, false
	}
	v := int(n)
	if neg {
		v = -v
	}
	return &v, true
}
