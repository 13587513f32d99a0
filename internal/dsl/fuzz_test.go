package dsl

import (
	"math/rand"
	"strings"
	"testing"
)

// The two text decoders sit on the trust boundary: program text arrives
// from remote hosts and brokers, description files from disk. Both fuzz
// targets require that a decoder never panics, that it agrees with the
// scanner-based reference in legacy_test.go, and that on success
// formatting then parsing again is the identity on the canonical text.
//
//	go test -run '^$' -fuzz '^FuzzParseProg$' -fuzztime 10s ./internal/dsl/
//	go test -run '^$' -fuzz '^FuzzParseDescs$' -fuzztime 10s ./internal/dsl/

func FuzzParseProg(f *testing.F) {
	target := testTarget(f)
	f.Add(buildProg(f, target).String())
	f.Add("# comment\n\nr0 = open$dev(path=\"/dev/dev0\")\n")
	for _, text := range []string{
		`nosuchcall(x=1)`,
		`open$dev(path="/dev/dev0", extra=1)`,
		`open$dev(wrongname="/dev/dev0")`,
		`ioctl$DEV_CMD(fd=r5, req=0xbeef, mode=0x2, size=0x2a)`,
		`open$dev(path="/dev/dev0"`,
		`r1 = open$dev(path="/dev/dev0")`,
		"r0 = open$dev(path=\"a\\\\\")\r\nhal$svc.doThing(handle=nil, name=\"q\\\"\\x00\")",
	} {
		f.Add(text)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		f.Add(randProg(f, target, rng).String())
		f.Add(wildProg(target, rng).String())
	}
	f.Fuzz(func(t *testing.T, text string) {
		checkProgText(t, target, text)
	})
}

func FuzzParseDescs(f *testing.F) {
	target := testTarget(f)
	f.Add(FormatDescs(target.Calls()))
	for _, text := range []string{
		"# comment\n\nsyscall open$x = open(path filename[\"/dev/x\"]) -> fd_x weight=0.30\n",
		`hal hal$usb.setPortRole = android.hardware.usb::setPortRole[3](role flags[0x0,0x1]) weight=0.55`,
		`syscall x = open(a string["x,y","z"]) weight=0.50`,
		`syscall x = open(a string["\\","\""], n int[0x0:0x10,hint=0x3,0x4]) crit=1 weight=0.50`,
		"syscall x = open(a int[0:1]) crit=9",
		"hal h = svc::method(a int[0:1])",
	} {
		f.Add(text)
	}
	f.Add(strings.ReplaceAll(FormatDescs(target.Calls()), "\n", "\r\n"))
	f.Fuzz(func(t *testing.T, text string) {
		checkDescsText(t, text)
	})
}
