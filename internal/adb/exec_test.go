package adb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"droidfuzz/internal/device"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/gen"
	"droidfuzz/internal/probe"
	"droidfuzz/internal/relation"
)

// probedBroker boots an A1 device, runs the probing pass on it, and
// returns a broker over the HAL-extended target, so generated programs
// reach HAL services and produce HAL traces.
func probedBroker(t *testing.T) (*Broker, *dsl.Target) {
	t.Helper()
	m, err := device.ModelByID("A1")
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(m)
	target, err := dsl.NewTarget(dev.SyscallDescs()...)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := probe.Run(dev, probe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if target, err = target.Extend(pr.Interfaces...); err != nil {
		t.Fatal(err)
	}
	return NewBroker(dev, target), target
}

// TestConnExecMatchesBrokerExec is the differential test of the singleton
// exec path: twin A1 devices run the same program stream, one through
// Broker.Exec in-process and one through Conn.Exec over net.Pipe (a
// one-program batch frame, decoded by the shared frame decoder). Every
// result must match field for field, and every rejection must carry the
// broker's exact message. The served connection has an uplink filter that
// calls everything after the first execution boring, so a singleton that
// were wrongly sent in summary mode would arrive elided and fail.
func TestConnExecMatchesBrokerExec(t *testing.T) {
	local, target := probedBroker(t)
	remote, _ := probedBroker(t)
	conn := pipeServer(t, &Server{X: remote, NewFilter: func() UplinkFilter { return &stubFilter{} }})

	graph := relation.New()
	for _, d := range target.Calls() {
		graph.AddVertex(d.Name, d.Weight)
	}
	g := gen.New(target, graph, rand.New(rand.NewSource(21)), gen.Options{})
	var progs []string
	for i := 0; i < 2000; i++ {
		progs = append(progs, g.Generate().String())
	}
	// Crash-inducing: the A1 lockdep BUG wedges the kernel mid-program.
	wedge := "r0 = open$gpu(path=\"/dev/gpu0\")\n" +
		"r1 = ioctl$GPU_ALLOC(fd=r0, req=0xa601, size=0x1000)\n" +
		"r2 = ioctl$GPU_SUBMIT(fd=r0, req=0xa604, handle=r1, stream=b\"" +
		hexEncode([]byte{0x47, 0x50, 0x55, 0x43, 9, 0, 0, 0}) + "\")\n" +
		"ioctl$GPU_MAP(fd=r0, req=0xa603, handle=r1)\n"
	malformed := []string{"", "this is not a program", "r0 = open$nosuch(path=\"/dev/x\")\n", "close$tcpc(fd=r9)\n"}
	progs = append(progs, wedge, benignProg, wedge)
	progs = append(progs, malformed...)
	// Interleave the special programs with generated ones too.
	for i, p := range append([]string{wedge}, malformed...) {
		at := 300 * (i + 1)
		progs = append(progs[:at], append([]string{p}, progs[at:]...)...)
	}

	var crashes, rejects, halTraced int
	for i, text := range progs {
		want, werr := local.Exec(ExecRequest{ProgText: text})
		got, gerr := conn.Exec(ExecRequest{ProgText: text})
		if werr != nil {
			var re *RemoteError
			if !errors.As(gerr, &re) || re.Msg != werr.Error() {
				t.Fatalf("prog %d: broker rejected with %q, conn returned %v", i, werr, gerr)
			}
			rejects++
			continue
		}
		if gerr != nil {
			t.Fatalf("prog %d: conn failed where the broker did not: %v\n%s", i, gerr, text)
		}
		if diff := diffResults(want, got); diff != "" {
			t.Fatalf("prog %d: %s\n%s", i, diff, text)
		}
		if want.Crashed() {
			crashes++
		}
		if len(want.HALTrace) > 0 {
			halTraced++
		}
		reboot := want.NeedsReboot()
		want.Release()
		got.Release()
		if reboot {
			if err := local.Reboot(); err != nil {
				t.Fatal(err)
			}
			if err := conn.Reboot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if crashes < 3 || rejects < len(malformed) || halTraced == 0 {
		t.Fatalf("stream exercised %d crashes, %d rejections and %d HAL traces, want >= 3, >= %d and > 0",
			crashes, rejects, halTraced, len(malformed))
	}
	t.Logf("%d programs: %d crashes, %d rejections, %d with HAL traces", len(progs), crashes, rejects, halTraced)
	if w := conn.WireStats(); w != (WireStats{}) {
		t.Fatalf("singleton execs counted as summary-mode traffic: %+v", w)
	}
}

// diffResults reports the first field where two execution results differ,
// or "" when they match. Empty and nil slices compare equal: the wire form
// does not distinguish them.
func diffResults(want, got *ExecResult) string {
	if len(want.Calls) != len(got.Calls) {
		return fmt.Sprintf("calls: %d, want %d", len(got.Calls), len(want.Calls))
	}
	for i := range want.Calls {
		a, b := &want.Calls[i], &got.Calls[i]
		if a.Executed != b.Executed || a.Errno != b.Errno || a.Ret != b.Ret {
			return fmt.Sprintf("call %d: %+v, want %+v", i, *b, *a)
		}
		if !equalSlices(a.Cover, b.Cover) {
			return fmt.Sprintf("call %d cover: %d PCs, want %d", i, len(b.Cover), len(a.Cover))
		}
	}
	switch {
	case !equalSlices(want.KernelCov, got.KernelCov):
		return fmt.Sprintf("kernel trace: %d PCs, want %d", len(got.KernelCov), len(want.KernelCov))
	case !equalSlices(want.HALTrace, got.HALTrace):
		return fmt.Sprintf("HAL trace: %v, want %v", got.HALTrace, want.HALTrace)
	case !equalSlices(want.Crashes, got.Crashes):
		return fmt.Sprintf("crashes: %v, want %v", got.Crashes, want.Crashes)
	case !equalSlices(want.Dmesg, got.Dmesg):
		return fmt.Sprintf("dmesg: %v, want %v", got.Dmesg, want.Dmesg)
	case want.Wedged != got.Wedged || want.HALDead != got.HALDead:
		return fmt.Sprintf("wedged/HALDead: %v/%v, want %v/%v", got.Wedged, got.HALDead, want.Wedged, want.HALDead)
	}
	return ""
}

func equalSlices[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
