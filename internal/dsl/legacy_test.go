package dsl

import (
	"bufio"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// This file keeps the codec's earlier line loop and formatter as oracles:
// ParseProg and ParseDescs driven by a bufio.Scanner with a 1 MiB buffer,
// and Prog.String built with fmt. They share the per-line parsers
// (parseCall, parseDescLine) with the real decoders, so agreement pins the
// line splitting, numbering, trimming and the line-length cap, and the
// byte-exact canonical text that corpus hashes and RNG seeds are taken of.

func legacyParseProg(target *Target, text string) (*Prog, error) {
	p := &Prog{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		c, err := parseCall(target, line, len(p.Calls))
		if err != nil {
			return nil, fmt.Errorf("dsl: line %d: %w", lineNo, err)
		}
		p.Calls = append(p.Calls, c)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dsl: scan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func legacyParseDescs(text string) ([]*CallDesc, error) {
	var out []*CallDesc
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		d, err := parseDescLine(line)
		if err != nil {
			return nil, fmt.Errorf("dsl: descs line %d: %w", lineNo, err)
		}
		out = append(out, d)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dsl: descs scan: %w", err)
	}
	return out, nil
}

func legacyString(p *Prog) string {
	var b strings.Builder
	for i, c := range p.Calls {
		if c.Desc.Ret != "" {
			fmt.Fprintf(&b, "r%d = ", i)
		}
		b.WriteString(c.Desc.Name)
		b.WriteByte('(')
		for j, f := range c.Desc.Args {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Name)
			b.WriteByte('=')
			legacyWriteArg(&b, f.Type, c.Args[j])
		}
		b.WriteString(")\n")
	}
	return b.String()
}

func legacyWriteArg(b *strings.Builder, t Type, a Arg) {
	switch t.Kind {
	case KindBuffer:
		b.WriteString(`b"`)
		b.WriteString(hex.EncodeToString(a.Data))
		b.WriteByte('"')
	case KindString, KindFilename:
		b.WriteString(strconv.Quote(a.Str))
	case KindResource:
		if a.Ref < 0 {
			b.WriteString("nil")
		} else {
			fmt.Fprintf(b, "r%d", a.Ref)
		}
	default:
		fmt.Fprintf(b, "%#x", a.Val)
	}
}

// errText renders an error for comparison; nil reads as "".
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkProgText parses text with both decoders and fails unless they agree:
// the same error text, or programs with the same canonical text. On
// success it also checks that both formatters print the same bytes and
// that the canonical text parses back to itself.
func checkProgText(t testing.TB, target *Target, text string) {
	t.Helper()
	p, err := ParseProg(target, text)
	lp, lerr := legacyParseProg(target, text)
	if errText(err) != errText(lerr) {
		t.Fatalf("decoders disagree on %.200q:\n new: %v\n old: %v", text, err, lerr)
	}
	if err != nil {
		return
	}
	s := p.String()
	if ls := legacyString(lp); s != ls {
		t.Fatalf("decoded programs differ on %.200q:\n new: %q\n old: %q", text, s, ls)
	}
	if ls := legacyString(p); s != ls {
		t.Fatalf("formatters differ:\n new: %q\n old: %q", s, ls)
	}
	q, err := ParseProg(target, s)
	if err != nil {
		t.Fatalf("canonical text does not parse: %v\n%q", err, s)
	}
	if qs := q.String(); qs != s {
		t.Fatalf("parse(format) is not the identity:\n got:  %q\n want: %q", qs, s)
	}
}

// checkDescsText is checkProgText for description files.
func checkDescsText(t testing.TB, text string) {
	t.Helper()
	ds, err := ParseDescs(text)
	lds, lerr := legacyParseDescs(text)
	if errText(err) != errText(lerr) {
		t.Fatalf("decoders disagree on %.200q:\n new: %v\n old: %v", text, err, lerr)
	}
	if err != nil {
		return
	}
	s := FormatDescs(ds)
	if ls := FormatDescs(lds); s != ls {
		t.Fatalf("decoded descs differ on %.200q:\n new: %q\n old: %q", text, s, ls)
	}
	ds2, err := ParseDescs(s)
	if err != nil {
		t.Fatalf("canonical descs do not parse: %v\n%q", err, s)
	}
	if s2 := FormatDescs(ds2); s2 != s {
		t.Fatalf("parse(format) is not the identity:\n got:  %q\n want: %q", s2, s)
	}
}

// Extreme argument values for wildProg.
var (
	wildVals = []uint64{0, 1, 2, 3, 42, 100, 101, 0xbeef, 1 << 63, math.MaxInt64, math.MaxUint64}
	wildStrs = []string{
		"", "abc", "/dev/dev0", `say "hi"`, `back\slash`, `\`, `\"`, `"`, `""`,
		"tab\tnl\ncr\r", "\x00\x7f\xff", "héllo, wörld", "日本", "\U0010ffff",
		"#not a comment", "a, b", "f(x)", "r0 = x", "=", " padded ",
	}
)

// wildArg draws an argument for t: a third of the time a valid random one,
// otherwise an extreme — 0, MaxUint64, nil or out-of-range refs, nil and
// empty buffers, strings with quotes, escapes and non-UTF-8 bytes.
func wildArg(t Type, idx int, rng *rand.Rand) Arg {
	if rng.Intn(3) == 0 {
		return RandomArg(t, rng)
	}
	switch t.Kind {
	case KindBuffer:
		switch rng.Intn(3) {
		case 0:
			return Arg{}
		case 1:
			return Arg{Data: []byte{}}
		}
		b := make([]byte, rng.Intn(2*t.BufLen+2))
		rng.Read(b)
		return Arg{Data: b}
	case KindString, KindFilename:
		return Arg{Str: wildStrs[rng.Intn(len(wildStrs))]}
	case KindResource:
		switch rng.Intn(4) {
		case 0:
			return Arg{Ref: -1}
		case 1:
			return Arg{Ref: rng.Intn(1000)}
		}
		return Arg{Ref: rng.Intn(idx + 1)}
	default:
		if rng.Intn(4) == 0 {
			return Arg{Val: rng.Uint64()}
		}
		return Arg{Val: wildVals[rng.Intn(len(wildVals))]}
	}
}

// wildProg builds a program of random calls over every description of the
// test target with wildArg arguments; it may or may not be valid.
func wildProg(target *Target, rng *rand.Rand) *Prog {
	calls := target.Calls()
	p := &Prog{}
	for i, n := 0, rng.Intn(12); i < n; i++ {
		d := calls[rng.Intn(len(calls))]
		c := &Call{Desc: d, Args: make([]Arg, len(d.Args))}
		for j, f := range d.Args {
			c.Args[j] = wildArg(f.Type, i, rng)
		}
		p.Calls = append(p.Calls, c)
	}
	return p
}

// TestLegacyCodecAgreesOnRandomProgs runs the scanner decoder and the fmt
// formatter against the current codec on random programs: randProg's valid
// ones, and wildProg's, which reach every argument kind and its extremes.
// A valid program must also survive format then parse unchanged.
func TestLegacyCodecAgreesOnRandomProgs(t *testing.T) {
	target := testTarget(t)
	const n = 10000
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < n; i++ {
		checkProgText(t, target, randProg(t, target, rng).String())
	}
	valid := 0
	for i := 0; i < n; i++ {
		p := wildProg(target, rng)
		text := p.String()
		if ls := legacyString(p); text != ls {
			t.Fatalf("formatters differ:\n new: %q\n old: %q", text, ls)
		}
		checkProgText(t, target, text)
		if p.Validate() == nil {
			valid++
			if _, err := ParseProg(target, text); err != nil {
				t.Fatalf("valid program does not parse: %v\n%q", err, text)
			}
		}
	}
	if valid < n/10 {
		t.Fatalf("only %d of %d wild programs were valid; the parse side is barely exercised", valid, n)
	}
}

// TestLegacyDescsAgreeOnCorruptedText compares the description decoders on
// the test target's file under random byte corruption and truncation.
func TestLegacyDescsAgreeOnCorruptedText(t *testing.T) {
	base := FormatDescs(testTarget(t).Calls())
	checkDescsText(t, base)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		b := []byte(base)
		for n := 1 + rng.Intn(4); n > 0; n-- {
			b[rng.Intn(len(b))] = "\n\r \t#\",()[]=\\x0"[rng.Intn(15)]
		}
		if rng.Intn(3) == 0 {
			b = b[:rng.Intn(len(b)+1)]
		}
		checkDescsText(t, string(b))
	}
}

// padCall returns a valid hal$svc.doThing call line of exactly n bytes,
// newline excluded, padded inside its string argument.
func padCall(n int) string {
	const head, tail = `hal$svc.doThing(handle=nil, name="`, `")`
	return head + strings.Repeat("x", n-len(head)-len(tail)) + tail
}

// padDesc returns a valid description line of exactly n bytes, newline
// excluded, padded inside a string choice.
func padDesc(n int) string {
	const head, tail = `syscall pad = open(path string["`, `"]) weight=0.50`
	return head + strings.Repeat("x", n-len(head)-len(tail)) + tail
}

// TestLegacyDecodersAgreeOnEdgeTexts compares both decoders, error text
// included, on hand-written line-level edge cases: CRLF, no final
// newline, blank, whitespace-only and comment lines, bad labels, and lines
// at and around the 1 MiB cap.
func TestLegacyDecodersAgreeOnEdgeTexts(t *testing.T) {
	target := testTarget(t)
	good := buildProg(t, target).String()
	open := `r0 = open$dev(path="/dev/dev0")`
	progTexts := []string{
		"", "\n", "\n\n\n", "   \t \n", "\r\n", "#", "# only a comment\n",
		good, strings.TrimSuffix(good, "\n"),
		strings.ReplaceAll(good, "\n", "\r\n"),
		strings.ReplaceAll(good, "\n", "\n\n  \t\n# note\n"),
		"# head\n\n" + good + "\n   \n# tail",
		"\r\n" + open + "\r\n\r\n",
		open + "\r", open + "\n\r", "\t" + open + "  \n",
		"r1 = " + open[5:],
		"rx = " + open[5:],
		"r = " + open[5:],
		"r-0 = " + open[5:],
		"r00 = " + open[5:],
		" r0  =  " + open[5:],
		open + "\nr0 = " + open[5:],
		open + "\n" + "bogus line",
		"\n\n" + open + "\nbogus line\n",
		open + "\x00",
		"#\n" + open + "\n" + `ioctl$DEV_CMD(fd=r0, req=0xbeef, mode=0x2, size=0x2a)` + "\n",
		open + "\n" + `ioctl$DEV_CMD(fd=r1, req=0xbeef, mode=0x2, size=0x2a)` + "\n",
	}
	for _, n := range []int{1<<20 - 2, 1<<20 - 1, 1 << 20, 1<<20 + 1} {
		for _, line := range []string{padCall(n), "#" + strings.Repeat("c", n-1), strings.Repeat(" ", n)} {
			progTexts = append(progTexts,
				line, line+"\n", line+"\r\n", open+"\n"+line, open+"\n"+line+"\n",
				line+"\n"+open+"\n", "bogus\n"+line+"\n")
		}
	}
	for _, text := range progTexts {
		checkProgText(t, target, text)
	}

	descs := FormatDescs(target.Calls())
	descTexts := []string{
		"", "\n", "# c\n\n", descs, strings.TrimSuffix(descs, "\n"),
		strings.ReplaceAll(descs, "\n", "\r\n"),
		strings.ReplaceAll(descs, "\n", "\n \n#x\n"),
		"bogus\n" + descs, descs + "bogus",
	}
	for _, n := range []int{1<<20 - 2, 1<<20 - 1, 1 << 20, 1<<20 + 1} {
		for _, line := range []string{padDesc(n), "#" + strings.Repeat("c", n-1)} {
			descTexts = append(descTexts, line, line+"\n", descs+line, line+"\r\n"+descs, "bogus\n"+line)
		}
	}
	for _, text := range descTexts {
		checkDescsText(t, text)
	}
}

// TestLineCapMatchesScanner pins where the cap falls and that the error
// still matches bufio.ErrTooLong.
func TestLineCapMatchesScanner(t *testing.T) {
	target := testTarget(t)
	if _, err := ParseProg(target, padCall(1<<20-1)+"\n"); err != nil {
		t.Fatalf("line of 1 MiB - 1 bytes rejected: %v", err)
	}
	_, err := ParseProg(target, padCall(1<<20)+"\n")
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line of 1 MiB: err = %v, want bufio.ErrTooLong", err)
	}
	if _, err := ParseDescs(padDesc(1<<20 - 1)); err != nil {
		t.Fatalf("description line of 1 MiB - 1 bytes rejected: %v", err)
	}
	if _, err := ParseDescs(padDesc(1 << 20)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("description line of 1 MiB: err = %v, want bufio.ErrTooLong", err)
	}
}
