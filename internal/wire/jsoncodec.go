package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"strconv"
	"sync"
)

// errTrailing answers a body with more than whitespace after its value.
var errTrailing = errors.New("json: data after the top-level value")

// DecodeJSON decodes one JSON request body into v: one value, then only
// whitespace, unknown fields refused.  A *JobSpec's key columns take the
// door's fast path (see the package comment); any other body is decoded
// by encoding/json whole.  On success *v is overwritten, not merged into.
func DecodeJSON(body []byte, v any) error {
	if spec, ok := v.(*JobSpec); ok && decodeSpecFast(body, spec) {
		return nil
	}
	return decodeReference(body, v)
}

// decodeReference is the reference decoder, and the door's oracle.
func decodeReference(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailing
	}
	return nil
}

// decodeSpecFast walks the top-level object: the columns go to parseInt64s,
// other members verbatim into a residual object for decodeReference.  It
// reports false, leaving spec untouched, for any body outside that shape.
func decodeSpecFast(body []byte, spec *JobSpec) bool {
	var s JobSpec
	cols := map[string]*[]int64{"keys": &s.Keys, "groupPayloads": &s.GroupPayloads}
	res := append(make([]byte, 0, 256), '{')
	i, sep := skipWS(body, 0), byte('{')
	for ; sep != '}'; sep = body[i] {
		if i == len(body) || body[i] != sep {
			return false
		}
		if i = skipWS(body, i+1); i == len(body) || body[i] != '"' {
			return false
		}
		n := bytes.IndexByte(body[i+1:], '"')
		name, member := body[i+1:i+1+max(n, 0)], i
		if i = skipWS(body, i+2+n); n < 0 || i == len(body) || body[i] != ':' {
			return false
		}
		i = skipWS(body, i+1)
		switch col, ok := cols[string(name)], true; {
		case bytes.IndexByte(name, '\\') >= 0:
			return false // an escape could spell a column name
		case col != nil && *col == nil: // a parsed column is never nil
			if *col, i, ok = parseInt64s(body, i); !ok {
				return false
			}
		case bytes.EqualFold(name, []byte("keys")), bytes.EqualFold(name, []byte("groupPayloads")):
			return false // a repeated or case-variant column
		default:
			end := skipValue(body, i)
			res, i = append(append(res, ','), body[member:end]...), end
		}
		if i = skipWS(body, i); i == len(body) || body[i] != ',' && body[i] != '}' {
			return false
		}
	}
	if len(res) > 1 {
		res[1] = ' ' // the first member's comma
	}
	if skipWS(body, i+1) != len(body) || decodeReference(append(res, '}'), &s) != nil {
		return false
	}
	*spec = s
	return true
}

func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// skipValue returns where the member value at body[i] ends: the first ','
// or '}' outside strings and brackets, or len(body).  The residual decode
// validates it.
func skipValue(body []byte, i int) int {
	depth := 0
	for ; i < len(body); i++ {
		switch c := body[i]; {
		case c == '"':
			for i++; i < len(body) && body[i] != '"'; i++ {
				if body[i] == '\\' {
					i++
				}
			}
		case c == '[' || c == '{':
			depth++
		case depth == 0 && (c == ',' || c == '}'):
			return i
		case c == ']' || c == '}':
			depth--
		}
	}
	return len(body)
}

// parseInt64s parses the array at body[i] when every element is a
// canonical JSON integer (-?(0|[1-9][0-9]*)) in int64 range, into a column
// sized by counting the commas before the first ']'.  It returns the
// column and the index just past the array.
func parseInt64s(body []byte, i int) (col []int64, end int, ok bool) {
	n := bytes.IndexByte(body[i:], ']')
	if n < 0 || body[i] != '[' {
		return nil, 0, false
	}
	// Elements take two bytes each with their commas (an empty array is
	// left to encoding/json), so no column outgrows a valid body's.
	arr, end := body[i+1:i+n], i+n+1
	if n = bytes.Count(arr, []byte{','}) + 1; n > (len(arr)+1)/2 {
		return nil, 0, false
	}
	col = make([]int64, n)
	j := 0
	for x := range col {
		if x > 0 && (j == len(arr) || arr[j] != ',') {
			return nil, 0, false
		}
		j = skipWS(arr, j+min(x, 1)) // past the comma
		neg, limit := j < len(arr) && arr[j] == '-', uint64(1<<63-1)
		if neg {
			j, limit = j+1, limit+1
		}
		var u uint64
		d := j
		for ; j < len(arr) && '0' <= arr[j] && arr[j] <= '9'; j++ { // wraps only past 19 digits, refused below
			u = u*10 + uint64(arr[j]-'0')
		}
		if j == d || j-d > 19 || arr[d] == '0' && j-d > 1 || u > limit {
			return nil, 0, false
		}
		if col[x] = int64(u); neg {
			col[x] = int64(-u)
		}
		j = skipWS(arr, j)
	}
	return col, end, j == len(arr)
}

// jsonBufLen is where WriteJSON's buffer is written out; 64 bytes of
// slack past it hold the append that crosses it.
const jsonBufLen = 4096

var jsonBufs = sync.Pool{New: func() any { return new([jsonBufLen + 64]byte) }}

// WriteJSON writes the page's JSON body: exactly the bytes
// json.NewEncoder(w).Encode(p) writes, built with strconv and base64
// through one pooled buffer, so writing a page allocates nothing.
func (p Page) WriteJSON(w io.Writer) (err error) {
	bp := jsonBufs.Get().(*[jsonBufLen + 64]byte)
	defer jsonBufs.Put(bp)
	b := bp[:0]
	emit := func(all bool) {
		if len(b) >= jsonBufLen || all {
			if err == nil {
				_, err = w.Write(b)
			}
			b = b[:0]
		}
	}
	b = strconv.AppendInt(append(b, `{"n":`...), int64(p.N), 10)
	b = strconv.AppendInt(append(b, `,"offset":`...), int64(p.Offset), 10)
	if p.Keys == nil {
		b = append(b, `,"keys":null`...)
	} else {
		b = append(b, `,"keys":[`...)
		for i, k := range p.Keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, k, 10)
			emit(false)
		}
		b = append(b, ']')
	}
	if len(p.Payloads) > 0 { // omitempty
		b = append(b, `,"payloads":[`...)
		for i, pl := range p.Payloads {
			if emit(false); i > 0 {
				b = append(b, ',')
			}
			if pl == nil {
				b = append(b, "null"...)
				continue
			}
			b = append(b, '"')
			for len(pl) > 0 {
				// Whole 3-byte groups but the last, so encodings concatenate.
				chunk := min(len(pl), (cap(b)-len(b))/4*3)
				b = base64.StdEncoding.AppendEncode(b, pl[:chunk])
				pl = pl[chunk:]
				emit(false)
			}
			b = append(b, '"')
		}
		b = append(b, ']')
	}
	b = append(b, "}\n"...)
	emit(true)
	return err
}
