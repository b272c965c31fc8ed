package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"ringrpq/internal/core"
	"ringrpq/internal/obs"
)

// The wire form of a result. A /query, /batch-item or /select body is
// '{' + fragment + tail: the fragment ("solutions":[…], or
// "vars":[…],"rows":[…]) depends only on the result, the tail ("count"
// … "elapsed_ms", "profile") is per request and small. Both are
// written without reflection by the appenders below, escaping strings
// and formatting numbers as encoding/json does; only a profile comes
// out of encoding/json. A result the cache keeps has its fragment
// encoded once, when it is stored, into the worker's scratch and copied
// out at exactly its length (Result.frag, which the cache charges); a
// hit writes those bytes to the connection where they lie, between '{'
// and a pooled tail. Any other result is appended straight into the
// response's pooled buffer. Either way a body is byte for byte what
// json.Encoder writes for ResultJSON / SelectResultJSON.

// appendFragment appends r's fragment to b: the members of
// {"vars":…,"rows":…} (no "rows" when there are none) for a pattern,
// of {"solutions":…} otherwise, and nothing for a result without
// solutions.
func appendFragment(b []byte, r *Result, pattern bool) []byte {
	if !pattern {
		if len(r.Solutions) == 0 {
			return b
		}
		b = append(b, `"solutions":[`...)
		for i, s := range r.Solutions {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"subject":`...)
			b = appendJSONString(b, s.Subject)
			b = append(b, `,"object":`...)
			b = appendJSONString(b, s.Object)
			b = append(b, '}')
		}
		return append(b, ']')
	}
	b = append(b, `"vars":`...)
	b = appendStrings(b, r.Vars)
	if len(r.Rows) > 0 {
		b = append(b, `,"rows":[`...)
		for i, row := range r.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendStrings(b, row)
		}
		b = append(b, ']')
	}
	return b
}

// appendStrings appends ss as encoding/json writes a []string, null
// when nil.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, s)
	}
	return append(b, ']')
}

// jsonPlain marks the bytes encoding/json copies through unchanged
// when they stand alone: ASCII other than controls, quote, backslash
// and the HTML set.
var jsonPlain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune("\"\\<>&", rune(c))
	}
	return t
}()

// jsonShort holds, for each ASCII byte encoding/json writes as a
// two-byte escape, the byte after the backslash. Every other ASCII byte
// that is not plain is written as a six-byte \u00XX.
var jsonShort = [utf8.RuneSelf]byte{'"': '"', '\\': '\\', '\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, byte for byte as
// encoding/json writes it with HTML escaping on: quote, backslash and
// \b \f \n \r \t as two-byte escapes; other controls and <, >, & as
// \u00XX; U+2028 and U+2029 escaped; and each byte of invalid UTF-8 as
// the escaped U+FFFD. A string with nothing to escape is copied in one
// append.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if jsonPlain[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			if e := jsonShort[c]; e != 0 {
				b = append(b, '\\', e)
			} else {
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// resultTail is the per-request part of a ResultJSON or
// SelectResultJSON object: every field after the fragment except
// "profile", in wire order.
type resultTail struct {
	Count        int     `json:"count"`
	Cached       bool    `json:"cached,omitempty"`
	Truncated    bool    `json:"truncated,omitempty"`
	LimitReached bool    `json:"limit_reached,omitempty"`
	Error        string  `json:"error,omitempty"`
	ElapsedMS    float64 `json:"elapsed_ms,omitempty"`
}

// appendTail appends the members of t's object, without its braces,
// byte for byte as encoding/json writes a resultTail.
func appendTail(b []byte, t *resultTail) []byte {
	b = append(b, `"count":`...)
	b = strconv.AppendInt(b, int64(t.Count), 10)
	if t.Cached {
		b = append(b, `,"cached":true`...)
	}
	if t.Truncated {
		b = append(b, `,"truncated":true`...)
	}
	if t.LimitReached {
		b = append(b, `,"limit_reached":true`...)
	}
	if t.Error != "" {
		b = append(b, `,"error":`...)
		b = appendJSONString(b, t.Error)
	}
	if t.ElapsedMS != 0 {
		b = append(b, `,"elapsed_ms":`...)
		b = appendJSONFloat(b, t.ElapsedMS)
	}
	return b
}

// appendJSONFloat appends a finite f as encoding/json writes a float64:
// the shortest decimal that reads back as f, in exponent form below
// 1e-6 and from 1e21 on, where a one-digit negative exponent loses its
// leading zero (1e-7, not 1e-07).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// body assembles one response body.
type body struct {
	bytes.Buffer
	enc *json.Encoder
}

var bodyPool = sync.Pool{New: func() any {
	b := new(body)
	b.enc = json.NewEncoder(&b.Buffer)
	return b
}}

// maxPooledBody keeps the buffer of an outsized response (a v→v closure
// can run to hundreds of megabytes) from living on in the pool.
const maxPooledBody = 1 << 20

func (b *body) release() {
	if b.Cap() <= maxPooledBody {
		b.Reset()
		bodyPool.Put(b)
	}
}

// encode appends the JSON of v without the Encoder's trailing newline.
func (b *body) encode(v any) {
	if err := b.enc.Encode(v); err != nil {
		panic(err) // v holds strings, bools, ints and finite floats only
	}
	b.Truncate(b.Len() - 1)
}

// appendResult appends the JSON object of one result.
func (b *body) appendResult(req Request, res *Result, elapsed time.Duration) {
	b.WriteByte('{')
	start := b.Len()
	if res.frag != nil {
		b.Write(res.frag)
	} else {
		b.Write(appendFragment(b.AvailableBuffer(), res, req.Pattern != ""))
	}
	if b.Len() > start {
		b.WriteByte(',')
	}
	b.closeResult(req, res, elapsed)
}

// closeResult appends the tail of one result's object and its closing
// brace.
func (b *body) closeResult(req Request, res *Result, elapsed time.Duration) {
	tail := resultTail{
		Count:     res.N,
		Cached:    res.Cached,
		ElapsedMS: float64(elapsed.Microseconds()) / 1e3,
		// The engine stops silently at the cap, so "filled the cap"
		// is the only truncation signal available.
		LimitReached: req.Limit > 0 && res.N >= req.Limit,
	}
	switch {
	case errors.Is(res.Err, core.ErrTimeout):
		tail.Truncated = true
	case res.Err != nil:
		tail.Error = res.Err.Error()
	}
	b.Write(appendTail(b.AvailableBuffer(), &tail))
	b.WriteByte('}')
}

// spliceProfile adds p as the last key of the object the body ends
// with.
func (b *body) spliceProfile(p *obs.Profile) {
	b.Truncate(b.Len() - 1)
	b.WriteString(`,"profile":`)
	b.encode(p)
	b.WriteByte('}')
}

// openBrace opens the object of a cache hit's body.
var openBrace = []byte{'{'}

// send writes the body newline-terminated like json.Encoder's. With a
// nil frag it is the whole response and goes in one Write, so a short
// response is one chunk on the wire. Otherwise it is the rest of an
// object whose '{' and fragment frag, a cache entry's, are written
// first, straight from the entry.
func (b *body) send(w http.ResponseWriter, status int, frag []byte) {
	b.WriteByte('\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client has gone.
	if frag != nil {
		_, _ = w.Write(openBrace)
		_, _ = w.Write(frag)
	}
	_, _ = w.Write(b.Bytes())
}
