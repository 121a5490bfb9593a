package eval

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSatBasics(t *testing.T) {
	// 2 predicates, both satisfied by e1 only.
	satFn := func(pred int, e string) bool { return e == "e1" }
	// e1 at rank 1: 2/log2(2) = 2.
	if got := Sat(2, []string{"e1", "e2"}, satFn); math.Abs(got-2) > 1e-12 {
		t.Errorf("Sat = %v, want 2", got)
	}
	// e1 at rank 2: 2/log2(3).
	want := 2 / math.Log2(3)
	if got := Sat(2, []string{"e2", "e1"}, satFn); math.Abs(got-want) > 1e-12 {
		t.Errorf("Sat = %v, want %v", got, want)
	}
}

func TestSatRankDiscount(t *testing.T) {
	satFn := func(pred int, e string) bool { return e == "good" }
	top := Sat(1, []string{"good", "bad", "bad"}, satFn)
	bottom := Sat(1, []string{"bad", "bad", "good"}, satFn)
	if top <= bottom {
		t.Errorf("satisfying entity at rank 1 (%v) must beat rank 3 (%v)", top, bottom)
	}
}

func TestSatEmpty(t *testing.T) {
	if got := Sat(3, nil, func(int, string) bool { return true }); got != 0 {
		t.Errorf("empty ranking sat = %v", got)
	}
}

func TestSatMax(t *testing.T) {
	sat := map[string]int{"a": 2, "b": 1, "c": 0}
	satFn := func(pred int, e string) bool { return pred < sat[e] }
	got := SatMax(2, []string{"c", "a", "b"}, 2, satFn)
	want := 2/math.Log2(2) + 1/math.Log2(3) // best ranking: a then b
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("SatMax = %v, want %v", got, want)
	}
	// k larger than candidate count.
	got = SatMax(2, []string{"a"}, 10, satFn)
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("SatMax with big k = %v", got)
	}
}

// Property: Sat of any ranking never exceeds SatMax over the same pool.
func TestSatBoundedBySatMax(t *testing.T) {
	f := func(seed uint8) bool {
		entities := []string{"a", "b", "c", "d", "e"}
		satFn := func(pred int, e string) bool {
			return (int(seed)+pred+int(e[0]))%3 == 0
		}
		const k = 3
		ranking := entities[:k]
		s := Sat(4, ranking, satFn)
		m := SatMax(4, entities, k, satFn)
		return s <= m+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanCI(t *testing.T) {
	mean, ci := MeanCI([]float64{1, 2, 3, 4, 5})
	if mean != 3 {
		t.Errorf("mean = %v", mean)
	}
	if ci <= 0 {
		t.Errorf("ci = %v, want positive", ci)
	}
	// Identical values → zero CI.
	_, ci = MeanCI([]float64{2, 2, 2})
	if ci != 0 {
		t.Errorf("constant data ci = %v", ci)
	}
	mean, ci = MeanCI([]float64{7})
	if mean != 7 || ci != 0 {
		t.Errorf("single value = (%v, %v)", mean, ci)
	}
	mean, ci = MeanCI(nil)
	if mean != 0 || ci != 0 {
		t.Errorf("empty = (%v, %v)", mean, ci)
	}
}

func TestMeanCIShrinksWithN(t *testing.T) {
	small := []float64{1, 5, 1, 5}
	var big []float64
	for i := 0; i < 16; i++ {
		big = append(big, small[i%4])
	}
	_, ciSmall := MeanCI(small)
	_, ciBig := MeanCI(big)
	if ciBig >= ciSmall {
		t.Errorf("CI should shrink with n: %v vs %v", ciBig, ciSmall)
	}
}

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]bool{true, false, true, true}); got != 0.75 {
		t.Errorf("Accuracy = %v", got)
	}
	if Accuracy(nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
}
