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
// "profile") is per request and small. Both come out of encoding/json
// and are spliced as bytes, so a body is byte for byte what
// json.Encoder writes for ResultJSON / SelectResultJSON, whether the
// result was just evaluated or replayed from the cache.

// wireBody memoises a result's fragment. A cached Result and every
// copy of it handed to a caller share one, so whoever renders the
// result first encodes for all; callers that never render never pay.
type wireBody struct {
	once sync.Once
	frag []byte
}

// fragment returns the result's encoded fragment (shared: read-only).
// pattern selects the /select shape; a result-cache key never serves
// both shapes, so a memoised fragment is always of the shape asked for.
func (r *Result) fragment(pattern bool) []byte {
	if r.wire == nil {
		return encodeFragment(r, pattern)
	}
	r.wire.once.Do(func() { r.wire.frag = encodeFragment(r, pattern) })
	return r.wire.frag
}

func encodeFragment(r *Result, pattern bool) []byte {
	var v any
	switch {
	case pattern:
		v = struct {
			Vars []string   `json:"vars"`
			Rows [][]string `json:"rows,omitempty"`
		}{r.Vars, r.Rows}
	case len(r.Solutions) > 0:
		sols := make([]SolutionJSON, len(r.Solutions))
		for i, s := range r.Solutions {
			sols[i] = SolutionJSON(s)
		}
		v = struct {
			Solutions []SolutionJSON `json:"solutions"`
		}{sols}
	default:
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // strings and slices of strings always marshal
	}
	return b[1 : len(b)-1]
}

// Encoded sizes, charged to the result cache when an entry is stored so
// that its cost is final before the fragment exists: the punctuation
// around one solution, one row and one value, and the keys and brackets
// around the lists. jsonStringLen covers the strings themselves.
const (
	wireSolutionBytes = len(`{"subject":,"object":},`)
	wireRowBytes      = len(`[],`)
	wireValueBytes    = len(`,`)
	wireListBytes     = len(`"vars":[],"rows":[]`)
)

// jsonPlain marks the bytes encoding/json copies through unchanged
// when they stand alone: ASCII other than controls, quote, backslash
// and the HTML set.
var jsonPlain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune("\"\\<>&", rune(c))
	}
	return t
}()

// jsonStringLen bounds the length of s as an encoding/json string,
// quotes included: exact for text without ASCII control characters, six
// bytes per such character otherwise (the encoder spends two on the
// common ones).
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
			case c == '"' || c == '\\':
				n += 2
			default:
				n += 6 // \u00XX
			}
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		i += size
		if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
			n += 6 // \ufffd, \u2028, \u2029
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
