package minijs

import (
	"reflect"
	"testing"
)

// FuzzMiniJS feeds the interpreter arbitrary source under a small fuel
// budget. The contract: parse errors and runtime errors are returned, never
// panicked, and the fuel bound guarantees termination — exactly what the
// browser relies on when running hostile phishing-kit scripts. Each input
// also runs through a Cache, as the browser runs it: sighted once, then
// twice through Parse plus Run (the first admits the Program, the second
// is a hit returning it). Every run must fail with Eval's error text, and
// the Program, run twice, must still equal a fresh parse. The seeds cover
// the constructs kits actually use: eval-free obfuscation, busy loops,
// exceptions, and the cloaking-style conditional redirect.
func FuzzMiniJS(f *testing.F) {
	f.Add(`var x = 1 + 2 * 3; x`)
	f.Add(`function f(n) { return n < 2 ? 1 : f(n-1) + f(n-2); } f(10)`)
	f.Add(`var s = ""; for (var i = 0; i < 10; i++) { s += String.fromCharCode(104 + i); } s`)
	f.Add(`while (true) {}`)
	f.Add(`try { null.x } catch (e) { "caught" }`)
	f.Add(`if (navigator && navigator.webdriver) { location.href = "/bot"; }`)
	f.Add(`throw "boom"`)
	f.Add(`var o = {a: [1,2,3]}; o.a[1]`)
	f.Add(`}{ not javascript ((`)
	f.Add(``)
	// Regression: truncated constructs whose productions consume EOF and
	// read again — cur/next must keep returning EOF, not run off the
	// token slice.
	f.Add(`do { x = 1 } while`)
	f.Add(`x =>`)
	f.Add(`switch (a) { case`)
	const fuel = 50_000
	f.Fuzz(func(t *testing.T, src string) {
		ip := New(fuel)
		_, evalErr := ip.Eval(src)
		if ip.Fuel() > fuel {
			t.Fatalf("fuel grew during evaluation: %d", ip.Fuel())
		}
		c := NewCache()
		_, _ = c.Parse(src)
		var progs [2]*Program
		for i := range progs {
			prog, err := c.Parse(src)
			if err == nil {
				err = New(fuel).Run(prog)
			}
			if errText(err) != errText(evalErr) {
				t.Fatalf("cached run %d: error %q, Eval: %q", i, errText(err), errText(evalErr))
			}
			progs[i] = prog
		}
		if progs[0] != progs[1] {
			t.Fatal("second cached parse did not return the admitted Program")
		}
		if fresh, _ := Parse(src); !reflect.DeepEqual(progs[1], fresh) {
			t.Fatal("running the cached Program changed it")
		}
	})
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
