// Package statediff deep-compares two values of the same type, field by
// field — through unexported state — and reports every path where they
// differ. It is the warm-run dirty-state auditor: a post-Reset session
// diffed against a freshly constructed one must come back clean, and any
// state that leaked across the reset is reported by its exact field path
// ("core.Session.cws.recStats.Retries: 3 != 0"), so the failure names the
// subsystem that forgot to truncate.
//
// Comparison semantics are chosen for the reset contract rather than
// abstract equality:
//
//   - a nil map or slice equals an empty one: truncating in place (the whole
//     point of a warm reset) must not read as a diff against a never-used
//     fresh value;
//   - floats compare by IEEE-754 bit pattern (NaN equals NaN, -0 differs
//     from +0) — the same equality the fingerprint contract uses;
//   - funcs and channels compare by nil-ness only: a callback that should
//     have been disarmed reads as "non-nil vs nil" with its path, while two
//     live callbacks are assumed equivalent (code identity is not
//     reflectable);
//   - pointer cycles are tracked pairwise, so mutually referencing
//     subsystems (scheduler ↔ context, manager ↔ adapter) terminate;
//   - a struct field tagged `statediff:"keep"` is skipped: capacity pools and
//     memoization caches that legitimately survive a reset (slab tails, free
//     lists, scratch buffers, lazily rendered names) carry the tag at their
//     declaration, so the exemption lives with the field.
package statediff

import (
	"fmt"
	"math"
	"reflect"
	"sort"
)

// Config controls a Diff.
type Config struct {
	// MaxDiffs bounds the report length; 0 means 64.
	MaxDiffs int
}

// Diff deep-compares a and b (which must be the same type; pass the roots as
// pointers so unexported struct state is reachable) and returns one
// "path: detail" line per difference, empty when the values match.
func Diff(a, b any, cfg Config) []string {
	max := cfg.MaxDiffs
	if max <= 0 {
		max = 64
	}
	d := &differ{max: max, visited: make(map[visit]bool)}
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	if !av.IsValid() || !bv.IsValid() {
		if av.IsValid() != bv.IsValid() {
			d.out = append(d.out, "root: one value is nil")
		}
		return d.out
	}
	if av.Type() != bv.Type() {
		return []string{fmt.Sprintf("root: type %v != %v", av.Type(), bv.Type())}
	}
	d.walk(av, bv, av.Type().String())
	return d.out
}

// visit keys one in-progress pointer pair; comparing the same pair again is
// definitionally equal (we are already comparing it higher in the walk).
type visit struct {
	a, b uintptr
	t    reflect.Type
}

type differ struct {
	max     int
	out     []string
	visited map[visit]bool
}

func (d *differ) full() bool { return len(d.out) >= d.max }

func (d *differ) report(path string, a, b reflect.Value) {
	if !d.full() {
		d.out = append(d.out, fmt.Sprintf("%s: %v != %v", path, a, b))
	}
}

func (d *differ) walk(a, b reflect.Value, path string) {
	if d.full() {
		return
	}
	switch a.Kind() {
	case reflect.Ptr:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				d.report(path, a, b)
			}
			return
		}
		v := visit{a.Pointer(), b.Pointer(), a.Type()}
		if d.visited[v] {
			return
		}
		d.visited[v] = true
		d.walk(a.Elem(), b.Elem(), path)
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				d.report(path, a, b)
			}
			return
		}
		ae, be := a.Elem(), b.Elem()
		if ae.Type() != be.Type() {
			if !d.full() {
				d.out = append(d.out, fmt.Sprintf("%s: dynamic type %v != %v", path, ae.Type(), be.Type()))
			}
			return
		}
		d.walk(ae, be, path)
	case reflect.Struct:
		t := a.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Tag.Get("statediff") == "keep" {
				continue
			}
			d.walk(a.Field(i), b.Field(i), path+"."+f.Name)
		}
	case reflect.Map:
		// Truncated-in-place vs never-used: clear(m) keeps the map non-nil,
		// and that must equal a fresh nil map.
		if a.Len() != b.Len() {
			if !d.full() {
				d.out = append(d.out, fmt.Sprintf("%s: map len %d != %d", path, a.Len(), b.Len()))
			}
			return
		}
		if a.Len() == 0 {
			return
		}
		keys := a.MapKeys()
		sort.Slice(keys, func(i, j int) bool {
			return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j])
		})
		for _, k := range keys {
			bv := b.MapIndex(k)
			kp := fmt.Sprintf("%s[%v]", path, k)
			if !bv.IsValid() {
				if !d.full() {
					d.out = append(d.out, kp+": key missing in fresh value")
				}
				continue
			}
			d.walk(a.MapIndex(k), bv, kp)
		}
	case reflect.Slice:
		// len-0 slices are equal regardless of nil-ness or capacity: retained
		// backing arrays are precisely what a warm reset keeps.
		if a.Len() != b.Len() {
			if !d.full() {
				d.out = append(d.out, fmt.Sprintf("%s: slice len %d != %d", path, a.Len(), b.Len()))
			}
			return
		}
		for i := 0; i < a.Len(); i++ {
			d.walk(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			d.walk(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Func, reflect.Chan:
		if a.IsNil() != b.IsNil() {
			d.report(path, a, b)
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			d.report(path, a, b)
		}
	case reflect.Complex64, reflect.Complex128:
		ac, bc := a.Complex(), b.Complex()
		if math.Float64bits(real(ac)) != math.Float64bits(real(bc)) ||
			math.Float64bits(imag(ac)) != math.Float64bits(imag(bc)) {
			d.report(path, a, b)
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			d.report(path, a, b)
		}
	case reflect.String:
		if a.String() != b.String() {
			d.report(path, a, b)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			d.report(path, a, b)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			d.report(path, a, b)
		}
	case reflect.UnsafePointer:
		if a.Pointer() != b.Pointer() {
			d.report(path, a, b)
		}
	default:
		// Invalid or an unhandled kind: nothing comparable.
	}
}
