package dsl

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// The program text form, one call per line:
//
//	r0 = open$tcpc(path="/dev/tcpc0")
//	ioctl$TCPC_SET_MODE(fd=r0, mode=0x3)
//	hal$graphics.createLayer(display=0x1, w=0x80, h=0x80)
//
// Scalars are hex; buffers are b"<hex>"; strings and filenames are quoted;
// resource arguments are rN (N = producing call index) or nil. A call whose
// description produces a resource is prefixed with "rI = " where I is its
// own call index, so labels are stable across serialize/parse round trips.

// String serializes the program to its canonical text form. The builder
// is sized once from textLen, so a program costs one allocation unless a
// quoted string expands past its estimate.
func (p *Prog) String() string {
	var b strings.Builder
	b.Grow(p.textLen())
	for i, c := range p.Calls {
		if c.Desc.Ret != "" {
			writeRef(&b, i)
			b.WriteString(" = ")
		}
		b.WriteString(c.Desc.Name)
		b.WriteByte('(')
		for j, f := range c.Desc.Args {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Name)
			b.WriteByte('=')
			writeArg(&b, f.Type, c.Args[j])
		}
		b.WriteString(")\n")
	}
	return b.String()
}

// textLen bounds the length of String's output from above, except where
// strconv.Quote escapes a string argument.
func (p *Prog) textLen() int {
	n := 0
	for i, c := range p.Calls {
		n += len(c.Desc.Name) + len("()\n")
		if c.Desc.Ret != "" {
			n += len("r = ") + decimalLen(i)
		}
		for j, f := range c.Desc.Args {
			n += len(", =") + len(f.Name)
			a := c.Args[j]
			switch f.Type.Kind {
			case KindBuffer:
				n += len(`b""`) + hex.EncodedLen(len(a.Data))
			case KindString, KindFilename:
				n += len(`""`) + len(a.Str)
			case KindResource:
				n += len("r") + decimalLen(a.Ref)
			default:
				n += len("0xffffffffffffffff")
			}
		}
	}
	return n
}

// decimalLen is the number of digits in a non-negative v, and 3 (the
// length of "nil") otherwise.
func decimalLen(v int) int {
	if v < 0 {
		return len("nil")
	}
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

func writeArg(b *strings.Builder, t Type, a Arg) {
	var scratch [64]byte
	switch t.Kind {
	case KindBuffer:
		b.WriteString(`b"`)
		for data := a.Data; len(data) > 0; {
			n := min(len(data), len(scratch)/2)
			b.Write(scratch[:hex.Encode(scratch[:], data[:n])])
			data = data[n:]
		}
		b.WriteByte('"')
	case KindString, KindFilename:
		b.Write(strconv.AppendQuote(scratch[:0], a.Str))
	case KindResource:
		if a.Ref < 0 {
			b.WriteString("nil")
		} else {
			writeRef(b, a.Ref)
		}
	default:
		b.WriteString("0x")
		b.Write(strconv.AppendUint(scratch[:0], a.Val, 16))
	}
}

// writeRef writes rN, a result label or a reference to call N.
func writeRef(b *strings.Builder, n int) {
	var digits [20]byte
	b.WriteByte('r')
	b.Write(strconv.AppendInt(digits[:0], int64(n), 10))
}

// maxLine bounds one line of text, newline excluded: the decoders' only
// bound on hostile input. A line and its newline fit in 1 MiB, the cap
// bufio.Scanner enforced with a 1 MiB buffer.
const maxLine = 1<<20 - 1

// errLineTooLong rejects a line longer than maxLine. It reads and matches
// (under errors.Is) as bufio.ErrTooLong, the error the scanner returned,
// so callers that test for that sentinel keep working.
var errLineTooLong error = lineTooLongError{}

type lineTooLongError struct{}

const lineTooLongText = "bufio.Scanner: token too long"

func (lineTooLongError) Error() string { return lineTooLongText }

func (lineTooLongError) Is(target error) bool {
	return target != nil && target.Error() == lineTooLongText
}

// eachLine calls fn with the 1-based number and the space-trimmed text of
// every line of text that is neither blank nor a '#' comment; a final line
// needs no newline, and TrimSpace drops a CRLF's '\r'. It stops at fn's
// first error and returns it, or errLineTooLong at the first line longer
// than maxLine. Lines are substrings of text: nothing is copied.
func eachLine(text string, fn func(lineNo int, line string) error) error {
	for lineNo := 1; text != ""; lineNo++ {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		if len(line) > maxLine {
			return errLineTooLong
		}
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		if err := fn(lineNo, line); err != nil {
			return err
		}
	}
	return nil
}

// ParseProg parses the canonical text form against the target. Unknown call
// names, malformed arguments, and invalid resource references are errors.
func ParseProg(target *Target, text string) (*Prog, error) {
	p := &Prog{}
	err := eachLine(text, func(lineNo int, line string) error {
		c, err := parseCall(target, line, len(p.Calls))
		if err != nil {
			return fmt.Errorf("dsl: line %d: %w", lineNo, err)
		}
		p.Calls = append(p.Calls, c)
		return nil
	})
	if err == errLineTooLong {
		return nil, fmt.Errorf("dsl: scan: %w", err)
	}
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseCall(target *Target, line string, idx int) (*Call, error) {
	// Optional "rI = " prefix.
	if eq := strings.Index(line, "="); eq > 0 {
		head := strings.TrimSpace(line[:eq])
		if strings.HasPrefix(head, "r") && !strings.Contains(head, "(") {
			label, err := strconv.Atoi(head[1:])
			if err != nil {
				return nil, fmt.Errorf("bad result label %q", head)
			}
			if label != idx {
				return nil, fmt.Errorf("result label r%d does not match call index %d", label, idx)
			}
			line = strings.TrimSpace(line[eq+1:])
		}
	}
	open := strings.Index(line, "(")
	if open < 0 || !strings.HasSuffix(line, ")") {
		return nil, fmt.Errorf("malformed call %q", line)
	}
	name := strings.TrimSpace(line[:open])
	desc := target.Lookup(name)
	if desc == nil {
		return nil, fmt.Errorf("unknown call %q", name)
	}
	argText := line[open+1 : len(line)-1]
	parts, err := splitArgs(argText)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if len(parts) != len(desc.Args) {
		return nil, fmt.Errorf("%s: got %d args, want %d", name, len(parts), len(desc.Args))
	}
	c := &Call{Desc: desc, Args: make([]Arg, len(parts))}
	for i, part := range parts {
		f := desc.Args[i]
		eq := strings.Index(part, "=")
		if eq < 0 {
			return nil, fmt.Errorf("%s: arg %d missing name", name, i)
		}
		argName := strings.TrimSpace(part[:eq])
		if argName != f.Name {
			return nil, fmt.Errorf("%s: arg %d named %q, want %q", name, i, argName, f.Name)
		}
		a, err := parseArg(f.Type, strings.TrimSpace(part[eq+1:]))
		if err != nil {
			return nil, fmt.Errorf("%s: arg %q: %w", name, f.Name, err)
		}
		c.Args[i] = a
	}
	return c, nil
}

// splitArgs splits on top-level commas, honoring double-quoted segments.
func splitArgs(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var parts []string
	start := 0
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			// Inside quotes a backslash escapes the next byte, so `\\"`
			// ends the quote while `\"` does not.
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				parts = append(parts, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote")
	}
	parts = append(parts, strings.TrimSpace(s[start:]))
	return parts, nil
}

func parseArg(t Type, s string) (Arg, error) {
	switch t.Kind {
	case KindBuffer:
		if !strings.HasPrefix(s, `b"`) || !strings.HasSuffix(s, `"`) {
			return Arg{}, fmt.Errorf("buffer arg %q not of form b\"<hex>\"", s)
		}
		data, err := hex.DecodeString(s[2 : len(s)-1])
		if err != nil {
			return Arg{}, fmt.Errorf("buffer hex: %w", err)
		}
		return Arg{Data: data}, nil
	case KindString, KindFilename:
		str, err := strconv.Unquote(s)
		if err != nil {
			return Arg{}, fmt.Errorf("string arg %q: %w", s, err)
		}
		return Arg{Str: str}, nil
	case KindResource:
		if s == "nil" {
			return Arg{Ref: -1}, nil
		}
		if !strings.HasPrefix(s, "r") {
			return Arg{}, fmt.Errorf("resource arg %q not rN or nil", s)
		}
		ref, err := strconv.Atoi(s[1:])
		if err != nil {
			return Arg{}, fmt.Errorf("resource ref %q: %w", s, err)
		}
		return Arg{Ref: ref}, nil
	default:
		v, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			return Arg{}, fmt.Errorf("scalar %q: %w", s, err)
		}
		return Arg{Val: v}, nil
	}
}
