// Package testutil holds helpers shared by the repository's tests: the
// reflection-based field perturbation the fingerprint-completeness tests
// use to prove that every field of a cache-keyed struct participates in its
// canonical encoding, and a reader for the metric registry's text
// rendering. It is imported only from _test files and must never be reached
// by production code.
package testutil

import (
	"reflect"
	"testing"
)

// PerturbField mutates one settable struct field to a different value of
// the same type. The fingerprint tests (machine.Config, workloads.Spec)
// use it to assert that every field participates in a canonical encoding;
// extend the switch when a fingerprinted struct gains a field of a new
// kind, and every caller picks the extension up at once.
func PerturbField(t testing.TB, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	default:
		t.Fatalf("testutil.PerturbField: unhandled field kind %v — extend this helper", v.Kind())
	}
}
