package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"ringrpq/internal/core"
	"ringrpq/internal/obs"
)

// The wire form of a result. A /query, /batch-item or /select body is
// '{' + fragment + tail: the fragment ("solutions":[…], or
// "vars":[…],"rows":[…]) depends only on the result and is encoded at
// most once per result-cache entry, the tail ("count" … "elapsed_ms",
// "profile") is per request and small. The fragment is written without
// reflection by the appender below, into one allocation of its exact
// size, escaping strings as encoding/json does; the tail comes out of
// encoding/json. The two are spliced as bytes, so a body is byte for
// byte what json.Encoder writes for ResultJSON / SelectResultJSON,
// whether the result was just evaluated or replayed from the cache.

// wireBody memoises a result's fragment. A cached Result and every
// copy of it handed to a caller share one, so whoever renders the
// result first encodes for all; callers that never render never pay.
type wireBody struct {
	once sync.Once
	size int // fragmentLen, computed when the entry was stored
	frag []byte
}

// fragment returns the result's encoded fragment (shared: read-only).
// pattern selects the /select shape; a result-cache key never serves
// both shapes, so a memoised fragment is always of the shape asked for.
func (r *Result) fragment(pattern bool) []byte {
	if r.wire == nil {
		return encodeFragment(r, pattern, fragmentLen(r, pattern))
	}
	r.wire.once.Do(func() { r.wire.frag = encodeFragment(r, pattern, r.wire.size) })
	return r.wire.frag
}

// encodeFragment writes r's fragment into one buffer of exactly size
// bytes, size being fragmentLen(r, pattern): the members of
// {"vars":…,"rows":…} (no "rows" when there are none) for a pattern,
// of {"solutions":…} otherwise, and nothing for a result without
// solutions.
func encodeFragment(r *Result, pattern bool, size int) []byte {
	if !pattern && len(r.Solutions) == 0 {
		return nil
	}
	b := make([]byte, 0, size)
	if !pattern {
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

// fragmentLen is the length of encodeFragment's output. The result
// cache charges it when an entry is stored, so that an entry's cost is
// final before its fragment exists.
func fragmentLen(r *Result, pattern bool) int {
	if !pattern {
		if len(r.Solutions) == 0 {
			return 0
		}
		n := len(`"solutions":[]`) + len(r.Solutions)*len(`{"subject":,"object":},`) - len(`,`)
		for _, s := range r.Solutions {
			n += jsonStringLen(s.Subject) + jsonStringLen(s.Object)
		}
		return n
	}
	n := len(`"vars":`) + stringsLen(r.Vars)
	if len(r.Rows) > 0 {
		n += len(`,"rows":[]`) + len(r.Rows) - len(`,`)
		for _, row := range r.Rows {
			n += stringsLen(row)
		}
	}
	return n
}

// stringsLen is the length of appendStrings's output for ss.
func stringsLen(ss []string) int {
	if ss == nil {
		return len("null")
	}
	n := len("[]") + max(len(ss)-1, 0)
	for _, s := range ss {
		n += jsonStringLen(s)
	}
	return n
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

// jsonStringLen is the length of appendJSONString's output for s,
// quotes included.
func jsonStringLen(s string) int {
	i := 0
	for i < len(s) && jsonPlain[s[i]] {
		i++
	}
	n := i + 2
	for i < len(s) {
		c := s[i]
		if c < utf8.RuneSelf {
			i++
			switch {
			case jsonPlain[c]:
				n++
			case jsonShort[c] != 0:
				n += 2
			default:
				n += 6 // \u00XX
			}
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		i += size
		if (r == utf8.RuneError && size == 1) || r == 0x2028 || r == 0x2029 {
			n += 6 // escaped U+FFFD, U+2028 or U+2029
		} else {
			n += size
		}
	}
	return n
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
	frag := res.fragment(req.Pattern != "")
	if len(frag) == 0 {
		b.encode(tail)
		return
	}
	b.WriteByte('{')
	b.Write(frag)
	brace := b.Len()
	b.encode(tail)
	b.Bytes()[brace] = ',' // the tail's own '{' separates it from the fragment
}

// spliceProfile adds p as the last key of the object the body ends
// with.
func (b *body) spliceProfile(p *obs.Profile) {
	b.Truncate(b.Len() - 1)
	b.WriteString(`,"profile":`)
	b.encode(p)
	b.WriteByte('}')
}

// send writes the body in one Write, newline-terminated like
// json.Encoder's, so a response is one chunk on the wire.
func (b *body) send(w http.ResponseWriter, status int) {
	b.WriteByte('\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b.Bytes()) // a failed write means the client has gone
}
