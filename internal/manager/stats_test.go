package manager

import (
	"reflect"
	"testing"
)

// TestStatsAddCoversEveryField sets every counter of Stats, nested ones
// included, to a distinct value and checks that adding it twice doubles
// each: a field added to Stats but not to Add fails here.
func TestStatsAddCoversEveryField(t *testing.T) {
	var one, two Stats
	fill(t, reflect.ValueOf(&one).Elem(), 1, new(int64))
	fill(t, reflect.ValueOf(&two).Elem(), 2, new(int64))
	var sum Stats
	sum.Add(one)
	sum.Add(one)
	if !reflect.DeepEqual(sum, two) {
		t.Fatalf("Add misses a field:\n got %+v\nwant %+v", sum, two)
	}
}

// fill sets every integer leaf of v to scale times the next value of n.
func fill(t *testing.T, v reflect.Value, scale int64, n *int64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), scale, n)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), scale, n)
		}
	case reflect.Uint64:
		*n++
		v.SetUint(uint64(scale * *n))
	case reflect.Int64:
		*n++
		v.SetInt(scale * *n)
	default:
		t.Fatalf("Stats holds a %s; teach fill and Add about it", v.Type())
	}
}
