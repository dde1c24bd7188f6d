package checkpointtest

import (
	"fmt"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strings"
)

// StateDiff walks live and restored side by side and returns, sorted, the
// path of every value in which they differ ("lc.maxPos: live 612,
// restored 0"): the checkpoint layer's property as a test — restoring a
// snapshot gives back the state the live operator had, field by field.
//
// The walk descends through structs, pointers, interfaces, maps (by key),
// slices and arrays (by index; a nil and an empty one are equal), and
// reads unexported fields through reflect.Value's kind accessors. A type
// with a method Equal(T) bool compares through it (tuple.Value). Floats
// compare by bit pattern, so -0 and a NaN's payload count; funcs, chans
// and other unsafe pointers compare by nil-ness only. Two pointers to the
// same object are equal without a walk.
//
// allow maps a field path — fields from the root down, without indices or
// keys: "wins.res.rng" covers that field of every window — to the reason
// it may differ. An allowed field is not reported, and an entry that
// excuses no difference is, so that the table holds exactly what a
// restore does not give back.
func StateDiff(live, restored any, allow map[string]string) []string {
	d := &differ{allow: allow, used: map[string]bool{}, seen: map[visit]bool{}}
	root := func(x any) reflect.Value { // in a variable: every field below has an address
		v := reflect.New(reflect.TypeOf(x)).Elem()
		v.Set(reflect.ValueOf(x))
		return v
	}
	d.walk("", root(live), root(restored))
	for path, why := range allow {
		if !d.used[path] {
			d.out = append(d.out, fmt.Sprintf("allow %q (%s): no difference there to excuse", path, why))
		}
	}
	sort.Strings(d.out)
	return d.out
}

type differ struct {
	allow map[string]string
	used  map[string]bool
	seen  map[visit]bool
	quiet int // > 0 inside an allowed field: differences count, unreported
	found int
	out   []string
}

// visit is a pointer pair already compared: pointer cycles end there.
type visit struct {
	a, b  uintptr
	t     reflect.Type
	quiet bool
}

// bits is a float as StateDiff compares and prints it.
type bits uint64

func (f bits) String() string {
	return fmt.Sprintf("%v (%016x)", math.Float64frombits(uint64(f)), uint64(f))
}

var indices = regexp.MustCompile(`\[[^]]*\]`)

func (d *differ) report(path string, live, restored any) {
	d.found++
	if d.quiet == 0 {
		d.out = append(d.out, fmt.Sprintf("%s: live %v, restored %v", path, live, restored))
	}
}

func (d *differ) walk(path string, a, b reflect.Value) {
	if a.Type() != b.Type() {
		d.report(path, a.Type(), b.Type())
		return
	}
	field := strings.TrimPrefix(indices.ReplaceAllString(path, ""), ".")
	if _, ok := d.allow[field]; !ok || d.quiet > 0 {
		d.walkKind(path, a, b)
		return
	}
	n := d.found
	d.quiet++
	d.walkKind(path, a, b)
	d.quiet--
	d.used[field] = d.used[field] || d.found > n
}

func (d *differ) walkKind(path string, a, b reflect.Value) {
	if !a.CanInterface() && a.CanAddr() { // below an unexported field, read-only; a view of its memory is not
		a, b = reflect.NewAt(a.Type(), a.Addr().UnsafePointer()).Elem(), reflect.NewAt(b.Type(), b.Addr().UnsafePointer()).Elem()
	}
	if m, ok := a.Type().MethodByName("Equal"); ok && m.Type.NumIn() == 2 && m.Type.In(1) == a.Type() && m.Type.NumOut() == 1 && m.Type.Out(0).Kind() == reflect.Bool && a.CanInterface() {
		if !m.Func.Call([]reflect.Value{a, b})[0].Bool() {
			d.report(path, a.Interface(), b.Interface())
		}
		return
	}
	var x, y any // a scalar pair, compared below
	switch a.Kind() {
	case reflect.Bool:
		x, y = a.Bool(), b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x, y = a.Int(), b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		x, y = a.Uint(), b.Uint()
	case reflect.Float32, reflect.Float64:
		x, y = bits(math.Float64bits(a.Float())), bits(math.Float64bits(b.Float()))
	case reflect.String:
		x, y = a.String(), b.String()
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		x, y, path = a.IsNil(), b.IsNil(), path+" is nil"
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			x, y, path = a.IsNil(), b.IsNil(), path+" is nil"
			break
		}
		if a.Kind() == reflect.Pointer {
			v := visit{a.Pointer(), b.Pointer(), a.Type(), d.quiet > 0}
			if v.a == v.b || d.seen[v] {
				return
			}
			d.seen[v] = true
		}
		d.walk(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			d.walk(strings.TrimPrefix(path+"."+a.Type().Field(i).Name, "."), a.Field(i), b.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			x, y, path = a.Len(), b.Len(), path+" len"
			break
		}
		for i := 0; i < a.Len(); i++ {
			d.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Map:
		for _, k := range a.MapKeys() {
			if at, v := fmt.Sprintf("%s[%v]", path, k), b.MapIndex(k); v.IsValid() {
				d.walk(at, a.MapIndex(k), v)
			} else {
				d.report(at, "present", "absent")
			}
		}
		for _, k := range b.MapKeys() {
			if !a.MapIndex(k).IsValid() {
				d.report(fmt.Sprintf("%s[%v]", path, k), "absent", "present")
			}
		}
	default:
		x, y = a.Kind(), "not compared"
	}
	if x != y {
		d.report(path, x, y)
	}
}
