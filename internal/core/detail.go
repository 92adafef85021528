package core

import (
	"fmt"
	"math"
	"time"
	"unsafe"
)

// Detail is a decision's human-readable explanation, kept as data: either
// plain text or a static Reason with its numeric arguments. A loop builds
// one on every tick whether or not anyone reads it, so building one
// allocates nothing; the text is rendered only when the detail is read
// (String, or MarshalText for JSON, where it encodes exactly as a string
// field would). Nothing decodes one: what comes back from JSON, a pending
// approval's explanation, comes back as a string and becomes Text.
//
// It is three words, so Finding and Action stay within one malloc size
// class of their string-field layout. Like slog.Value, it holds a text's
// bytes and length in place of a reason's pointer and first argument; the
// second word of a text is textTag, which no argument word holds.
type Detail struct {
	p    unsafe.Pointer // a text's first byte, or the *Reason
	a, b uint64         // a text's length and textTag, or the first two arguments' float64 bits
}

// textTag marks a text Detail. It is a signalling-NaN bit pattern, and
// Reason.With stores every NaN argument as math.NaN()'s bits (it renders as
// "NaN" either way), so no reason's argument word equals it.
const textTag = 0x7ff0_7e78_7400_0000

// Text returns a detail holding s. It does not copy s.
func Text(s string) Detail {
	if s == "" {
		return Detail{}
	}
	return Detail{p: unsafe.Pointer(unsafe.StringData(s)), a: uint64(len(s)), b: textTag}
}

// String renders the detail's text.
func (d Detail) String() string {
	switch {
	case d.p == nil:
		return ""
	case d.b == textTag:
		return unsafe.String((*byte)(d.p), int(d.a))
	}
	r := (*Reason)(d.p)
	if r.args != nil {
		return r.render(r.args)
	}
	args := [2]float64{math.Float64frombits(d.a), math.Float64frombits(d.b)}
	return r.render(args[:len(r.kinds)])
}

// MarshalText renders the detail, so encoding/json writes it as the JSON
// string of its text.
func (d Detail) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// Reason is a static explanation format whose verbs take numeric arguments:
// %d renders an integer, %v a time.Duration, and every other verb (%f,
// %.1f, %g, ...) a float64. Build each once, at package level or when a case
// is constructed, and attach its arguments per decision with With.
// Integer and duration arguments travel as float64, exactly for magnitudes
// up to 2^53 (about 104 days of nanoseconds).
type Reason struct {
	format string
	kinds  []byte // one verb letter class per argument: 'd', 'v' or 'f'
	args   []float64
}

// NewReason parses format's verbs. It panics on a verb that takes no number
// (%s, %q, ...), so a bad reason fails where it is declared.
func NewReason(format string) *Reason {
	r := &Reason{format: format}
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) && (format[i] == '.' || format[i] == '+' || format[i] == '-' ||
			format[i] == '#' || format[i] == ' ' || format[i] >= '0' && format[i] <= '9') {
			i++
		}
		if i == len(format) {
			panic(fmt.Sprintf("core: reason %q ends inside a verb", format))
		}
		switch c := format[i]; c {
		case '%':
		case 'd', 'v':
			r.kinds = append(r.kinds, c)
		case 'e', 'E', 'f', 'F', 'g', 'G':
			r.kinds = append(r.kinds, 'f')
		default:
			panic(fmt.Sprintf("core: reason %q: verb %%%c takes no number", format, c))
		}
	}
	return r
}

// With returns the detail r explains with args, one per verb. Up to two
// arguments are held in the detail itself; more are copied, with the
// reason, to the heap.
func (r *Reason) With(args ...float64) Detail {
	if len(args) != len(r.kinds) {
		panic(fmt.Sprintf("core: reason %q takes %d arguments, got %d", r.format, len(r.kinds), len(args)))
	}
	d := Detail{p: unsafe.Pointer(r)}
	switch len(args) {
	case 2:
		d.b = argBits(args[1])
		fallthrough
	case 1:
		d.a = argBits(args[0])
	case 0:
	default:
		d.p = unsafe.Pointer(&Reason{format: r.format, kinds: r.kinds, args: append([]float64(nil), args...)})
	}
	return d
}

// argBits is an argument's word: its float64 bits, with every NaN made
// math.NaN() so that no argument word is textTag.
func argBits(x float64) uint64 {
	if x != x {
		x = math.NaN()
	}
	return math.Float64bits(x)
}

// render formats r's format over args as the verbs' types, the same text
// fmt.Sprintf gives for the ints, durations and floats the arguments were.
func (r *Reason) render(args []float64) string {
	vals := make([]any, len(args))
	for i, x := range args {
		switch r.kinds[i] {
		case 'd':
			vals[i] = int64(x)
		case 'v':
			vals[i] = time.Duration(x)
		default:
			vals[i] = x
		}
	}
	return fmt.Sprintf(r.format, vals...)
}
