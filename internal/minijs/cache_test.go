package minijs

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// suiteScripts returns every string literal of the minijs tests and of
// FuzzMiniJS's seeds: every script the suite evaluates verbatim. Literals
// that are expected results rather than scripts (`"caught"`, `"4:true"`)
// are scripts too, just short ones.
func suiteScripts(t *testing.T) []string {
	t.Helper()
	fset := gotoken.NewFileSet()
	seen := map[string]bool{}
	var out []string
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, name := range []string{"minijs_test.go", "fuzz_test.go"} {
		f, err := goparser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == gotoken.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					add(s)
				}
			}
			return true
		})
	}
	if len(out) < 200 {
		t.Fatalf("found only %d scripts in the test suite", len(out))
	}
	return out
}

// describe renders a result value for comparison across interpreters,
// cut off at a small depth so cyclic objects terminate.
func describe(v Value, depth int) string {
	if v.kind != KindObject || depth == 0 {
		return fmt.Sprintf("%d:%s", v.kind, v.ToString())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d:%d{", v.kind, v.obj.Class)
	for _, e := range v.obj.Elems {
		b.WriteString(describe(e, depth-1) + ",")
	}
	for _, k := range v.obj.Keys() {
		b.WriteString(k + ":" + describe(v.obj.Props[k], depth-1) + ",")
	}
	b.WriteString("}")
	return b.String()
}

// TestRunLeavesProgramUnchanged pins the invariant the Cache rests on:
// running a Program never writes to it. Each script of the test suite is
// parsed once and run in two fresh interpreters in turn; each run must
// give uncached Eval's value and error, and the Program must still equal
// a fresh parse afterwards.
func TestRunLeavesProgramUnchanged(t *testing.T) {
	const fuel = 200_000
	ran := 0
	for _, src := range suiteScripts(t) {
		wantV, wantErr := New(fuel).Eval(src)
		prog, err := Parse(src)
		if err != nil {
			if err.Error() != errText(wantErr) {
				t.Errorf("%q: Parse error %q, Eval error %q", src, err, errText(wantErr))
			}
			continue
		}
		for run := 0; run < 2; run++ {
			v, err := New(fuel).exec(prog)
			if errText(err) != errText(wantErr) {
				t.Errorf("%q run %d: error %q, Eval error %q", src, run, errText(err), errText(wantErr))
			}
			if got, want := describe(v, 3), describe(wantV, 3); got != want {
				t.Errorf("%q run %d: value %s, Eval value %s", src, run, got, want)
			}
		}
		if fresh, _ := Parse(src); !reflect.DeepEqual(prog, fresh) {
			t.Errorf("%q: running the Program changed it", src)
		}
		ran++
	}
	t.Logf("%d scripts ran twice from one parse", ran)
}

// sharedScript exercises closures, object and array literals, switch and
// try/catch; the concurrency test runs one cached parse of it in many
// interpreters.
const sharedScript = `
function counter(start) {
	var n = start;
	return function (step) { n += step; return n; };
}
function kind(x) {
	switch (typeof x) {
	case "number": return "num";
	case "string": return "str";
	default: return "other";
	}
}
var c = counter(10);
var items = [1, "two", {three: 3}, [4]];
var tags = [];
for (var i = 0; i < items.length; i++) { tags.push(kind(items[i])); }
var caught = "";
try { null.prop; } catch (e) { caught = e.name; } finally { c(1); }
var obj = {total: c(5), tags: tags.join(","), caught: caught};
obj.total + "|" + obj.tags + "|" + obj.caught
`

// TestSharedProgramConcurrentRuns runs one script in 8 goroutines, each
// with its own interpreter, all parsing through one Cache, so after the
// second sighting every run shares one Program. Under -race any write to
// the shared tree or unguarded cache access is a reported race; without
// it, every run must still give the same value.
func TestSharedProgramConcurrentRuns(t *testing.T) {
	const want = "16|num,str,other,other|TypeError"
	c := NewCache()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				prog, err := c.Parse(sharedScript)
				if err != nil {
					errs <- err
					return
				}
				v, err := New(0).exec(prog)
				if err != nil || v.ToString() != want {
					errs <- fmt.Errorf("run = %q, %v; want %q", v.ToString(), err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	prog, _ := c.Parse(sharedScript)
	if fresh, _ := Parse(sharedScript); !reflect.DeepEqual(prog, fresh) {
		t.Error("concurrent runs changed the cached Program")
	}
}

// TestCacheAdmitsOnSecondSighting: the first Parse of a source only
// records its hash; the second parses and keeps the Program; later calls
// return that Program.
func TestCacheAdmitsOnSecondSighting(t *testing.T) {
	c := NewCache()
	const src = `var a = [1, 2]; a.length`
	first, _ := c.Parse(src)
	if len(c.progs) != 0 || len(c.seen) != 1 {
		t.Fatalf("after one sighting: %d programs, %d hashes; want 0, 1", len(c.progs), len(c.seen))
	}
	second, _ := c.Parse(src)
	third, _ := c.Parse(src)
	if len(c.progs) != 1 || c.bytes != len(src) {
		t.Fatalf("after two sightings: %d programs of %d bytes; want 1 of %d", len(c.progs), c.bytes, len(src))
	}
	if first == second || second != third {
		t.Errorf("programs %p %p %p: want a fresh parse, then the admitted one twice", first, second, third)
	}
	if !reflect.DeepEqual(first, third) {
		t.Error("cached Program differs from a fresh parse")
	}
}

// TestCacheKeepsParseErrors: a bad script is cached with its error, and
// every call returns the same error text as an uncached Parse.
func TestCacheKeepsParseErrors(t *testing.T) {
	c := NewCache()
	const src = `}{ not javascript ((`
	_, want := Parse(src)
	if want == nil {
		t.Fatal("bad script parsed")
	}
	var errs []error
	for i := 0; i < 3; i++ {
		prog, err := c.Parse(src)
		if prog != nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("call %d = %v, %v; want nil, %q", i, prog, err, want)
		}
		errs = append(errs, err)
	}
	if len(c.progs) != 1 || errs[1] != errs[2] {
		t.Error("the parse error was not cached")
	}
}

// TestNilCacheParses: a nil cache is a plain Parse.
func TestNilCacheParses(t *testing.T) {
	var c *Cache
	prog, err := c.Parse(`1 + 1`)
	if err != nil || prog == nil {
		t.Fatalf("nil cache: %v, %v", prog, err)
	}
	if _, err := c.Parse(`(`); err == nil {
		t.Error("nil cache accepted a bad script")
	}
}

// TestCacheStaysBounded feeds 10,000 distinct sources twice each, so
// every one is admitted: both tables must stay within their caps, and a
// source over the byte cap is never kept.
func TestCacheStaysBounded(t *testing.T) {
	c := NewCache()
	pad := strings.Repeat(" ", 100)
	for i := 0; i < 10_000; i++ {
		src := fmt.Sprintf("var v%d = %d;%s", i, i, pad)
		for sighting := 0; sighting < 2; sighting++ {
			if _, err := c.Parse(src); err != nil {
				t.Fatal(err)
			}
			if len(c.seen) > cacheSeenCap || c.bytes > cacheSourceCap {
				t.Fatalf("source %d: %d hashes, %d cached bytes; caps %d, %d",
					i, len(c.seen), c.bytes, cacheSeenCap, cacheSourceCap)
			}
		}
	}
	sum := 0
	for k := range c.progs {
		sum += len(k)
	}
	if sum != c.bytes {
		t.Errorf("byte count %d, cached keys hold %d", c.bytes, sum)
	}
	if len(c.progs) == 0 {
		t.Error("nothing was cached")
	}
	huge := "var h = 1;" + strings.Repeat(" ", cacheSourceCap)
	for i := 0; i < 3; i++ {
		_, _ = c.Parse(huge)
	}
	if _, ok := c.progs[huge]; ok {
		t.Error("a source over the byte cap was cached")
	}
}

// TestCacheHitAllocBudget: a cache hit allocates nothing.
func TestCacheHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	c := NewCache()
	const src = `var a = [1, 2]; a.length`
	c.Parse(src)
	c.Parse(src)
	if n := testing.AllocsPerRun(100, func() { _, _ = c.Parse(src) }); n != 0 {
		t.Errorf("cache hit: %.1f allocs, want 0", n)
	}
}
