package daemon

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// The front door's wire form. A path or session answer is appended into a
// pooled buffer by hand instead of going through encoding/json's reflection,
// and a path endpoint's query is parsed once into the keys it reads; both
// produce exactly the bytes and values the library calls they replace
// (FuzzBodyMatchesEncodingJSON, FuzzQueryArgsMatchParseQuery), so the wire
// is unchanged (TestWireGolden).

// Header values shared by every answer. net/http only reads a handler's
// header map, and Set replaces a slice rather than writing into it.
var (
	jsonContentType = []string{"application/json"}
	cacheHit        = []string{"hit"}
	cacheMiss       = []string{"miss"}
)

// pathQuery is a path endpoint's query string, parsed once: for each key the
// endpoints read, the first value url.ParseQuery would list for it, "" when
// none. Pairs holding a ';' or a malformed escape are skipped, as there, and
// '+' and %XX are decoded only in a pair that has them.
type pathQuery struct {
	src, dst, maxhops, minbw, bid string
}

func parsePathQuery(raw string) pathQuery {
	var q pathQuery
	var seen uint8
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err != nil {
			continue
		}
		var field *string
		var bit uint8
		switch k {
		case "src":
			field, bit = &q.src, 1
		case "dst":
			field, bit = &q.dst, 2
		case "maxhops":
			field, bit = &q.maxhops, 4
		case "minbw":
			field, bit = &q.minbw, 8
		case "bid":
			field, bit = &q.bid, 16
		default:
			continue
		}
		if seen&bit != 0 {
			continue
		}
		if v, err = url.QueryUnescape(v); err != nil {
			continue
		}
		*field, seen = v, seen|bit
	}
	return q
}

// jsonBody is a pooled answer buffer.
type jsonBody struct{ b []byte }

var bodies = sync.Pool{New: func() any { return &jsonBody{b: make([]byte, 0, 512)} }}

func newBody() *jsonBody {
	jb := bodies.Get().(*jsonBody)
	jb.b = jb.b[:0]
	return jb
}

// send answers status with the buffer as the JSON body, newline-terminated
// as json.Encoder ends a value, and recycles the buffer: the ResponseWriter
// has copied the bytes by the time Write returns.
func (jb *jsonBody) send(w http.ResponseWriter, status int) {
	jb.b = append(jb.b, '\n')
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(jb.b)
	bodies.Put(jb)
}

// writeJSON answers the endpoints off the hot path through encoding/json.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers {"error": message}.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	jb := newBody()
	jb.b = append(jb.b, `{"error":`...)
	jb.b = appendString(jb.b, fmt.Sprintf(format, args...))
	jb.b = append(jb.b, '}')
	jb.send(w, status)
}

// writeStatus answers {"status": status}.
func writeStatus(w http.ResponseWriter, code int, status string) {
	jb := newBody()
	jb.b = append(jb.b, `{"status":`...)
	jb.b = appendString(jb.b, status)
	jb.b = append(jb.b, '}')
	jb.send(w, code)
}

// appendPath appends the pathResponse of a path: names[u] is node u's name,
// read straight from the topology's table, so an answer builds no slice of
// its own.
func appendPath(b []byte, nodes []int32, names []string, latencyMs float64) []byte {
	b = append(b, `{"nodes":`...)
	b = appendNodes(b, nodes)
	b = append(b, `,"names":[`...)
	for i, u := range nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, names[u])
	}
	b = append(b, `],"hops":`...)
	b = strconv.AppendInt(b, int64(len(nodes)-1), 10)
	b = append(b, `,"latency_ms":`...)
	b = appendFloat(b, latencyMs)
	return append(b, '}')
}

func (r sessionResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(r.ID), 10)
	b = append(b, `,"nodes":`...)
	b = appendNodes(b, r.Nodes)
	b = append(b, `,"hops":`...)
	b = strconv.AppendInt(b, int64(r.Hops), 10)
	b = append(b, `,"gbps":`...)
	b = appendFloat(b, r.Bandwidth)
	return append(b, '}')
}

// appendNodes appends a node list as encoding/json writes an []int32.
func appendNodes(b []byte, nodes []int32) []byte {
	if nodes == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, u := range nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(u), 10)
	}
	return append(b, ']')
}

// appendFloat appends a finite float64 as encoding/json does: the shortest
// round-tripping form, in exponent notation below 1e-6 and from 1e21 up, with
// a two-digit negative exponent cut to one (1e-07 → 1e-7). Every float the
// front door writes is finite: latencies are sums of link latencies, and a
// bandwidth came in through a JSON number.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json quotes a string with HTML
// escaping on (json.Encoder's default): '"' and '\\' and the short control
// escapes, other control bytes and <, >, & as \u00XX, an invalid UTF-8 byte
// as \ufffd, and U+2028/U+2029 escaped. A string with nothing to escape —
// every node name — costs one scan and one copy.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
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
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
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
