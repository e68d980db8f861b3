package probdb

import (
	"errors"
	"math"
	"testing"

	"repro/internal/view"
)

// fourRows builds a simple bucketed distribution over [0,4):
// P([0,1)) = 0.1, P([1,2)) = 0.2, P([2,3)) = 0.4, P([3,4)) = 0.3.
func fourRows() []view.Row {
	return []view.Row{
		{T: 1, Lambda: -2, Lo: 0, Hi: 1, Prob: 0.1},
		{T: 1, Lambda: -1, Lo: 1, Hi: 2, Prob: 0.2},
		{T: 1, Lambda: 0, Lo: 2, Hi: 3, Prob: 0.4},
		{T: 1, Lambda: 1, Lo: 3, Hi: 4, Prob: 0.3},
	}
}

func TestRangeProbExactBuckets(t *testing.T) {
	p, err := RangeProb(fourRows(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.6) > 1e-12 {
		t.Errorf("P(1,3) = %v, want 0.6", p)
	}
	all, _ := RangeProb(fourRows(), 0, 4)
	if math.Abs(all-1.0) > 1e-12 {
		t.Errorf("P(all) = %v", all)
	}
	none, _ := RangeProb(fourRows(), 10, 20)
	if none != 0 {
		t.Errorf("P(disjoint) = %v", none)
	}
}

func TestRangeProbPartialOverlap(t *testing.T) {
	// [1.5, 2.5] covers half of bucket 2 (0.1) and half of bucket 3 (0.2).
	p, err := RangeProb(fourRows(), 1.5, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.3) > 1e-12 {
		t.Errorf("P(1.5,2.5) = %v, want 0.3", p)
	}
}

func TestRangeProbValidation(t *testing.T) {
	if _, err := RangeProb(nil, 0, 1); !errors.Is(err, ErrNoRows) {
		t.Error("empty rows accepted")
	}
	if _, err := RangeProb(fourRows(), 2, 1); !errors.Is(err, ErrBadArg) {
		t.Error("inverted range accepted")
	}
	if _, err := RangeProb(fourRows(), math.NaN(), 1); !errors.Is(err, ErrBadArg) {
		t.Error("NaN bound accepted")
	}
}

func TestTopK(t *testing.T) {
	top2, err := TopK(fourRows(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top2) != 2 {
		t.Fatalf("TopK(2) = %d rows", len(top2))
	}
	if top2[0].Prob != 0.4 || top2[1].Prob != 0.3 {
		t.Errorf("TopK order: %v, %v", top2[0].Prob, top2[1].Prob)
	}
	// k larger than available: return all.
	all, _ := TopK(fourRows(), 10)
	if len(all) != 4 {
		t.Error("TopK(10) should return all rows")
	}
	if _, err := TopK(fourRows(), 0); !errors.Is(err, ErrBadArg) {
		t.Error("k=0 accepted")
	}
	if _, err := TopK(nil, 1); !errors.Is(err, ErrNoRows) {
		t.Error("empty rows accepted")
	}
}

func TestTopKDeterministicTies(t *testing.T) {
	rows := []view.Row{
		{T: 1, Lambda: 1, Lo: 3, Hi: 4, Prob: 0.5},
		{T: 1, Lambda: -1, Lo: 1, Hi: 2, Prob: 0.5},
	}
	top, err := TopK(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	if top[0].Lambda != -1 {
		t.Errorf("tie broken by %d, want lambda -1", top[0].Lambda)
	}
}

func TestExpected(t *testing.T) {
	// E = 0.5*0.1 + 1.5*0.2 + 2.5*0.4 + 3.5*0.3 = 2.4
	e, err := Expected(fourRows())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-2.4) > 1e-12 {
		t.Errorf("Expected = %v, want 2.4", e)
	}
	if _, err := Expected(nil); !errors.Is(err, ErrNoRows) {
		t.Error("empty rows accepted")
	}
	zero := []view.Row{{T: 1, Lo: 0, Hi: 1, Prob: 0}}
	if _, err := Expected(zero); !errors.Is(err, ErrBadArg) {
		t.Error("zero-mass distribution accepted")
	}
}

func TestExpectedNormalisesTruncatedMass(t *testing.T) {
	// Same shape, but each prob halved (truncated tails): expectation must
	// be unchanged thanks to normalisation.
	rows := fourRows()
	for i := range rows {
		rows[i].Prob /= 2
	}
	e, err := Expected(rows)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-2.4) > 1e-12 {
		t.Errorf("Expected = %v, want 2.4", e)
	}
}

func TestBucketQueryRooms(t *testing.T) {
	// The Fig. 1 scenario: four rooms along the value axis.
	rooms := []Bucket{
		{Name: "room1", Lo: 0, Hi: 1},
		{Name: "room2", Lo: 1, Hi: 2},
		{Name: "room3", Lo: 2, Hi: 3},
		{Name: "room4", Lo: 3, Hi: 4},
	}
	ps, err := BucketQuery(fourRows(), rooms)
	if err != nil {
		t.Fatal(err)
	}
	if ps[0].Bucket.Name != "room3" || math.Abs(ps[0].Prob-0.4) > 1e-12 {
		t.Errorf("top room = %+v", ps[0])
	}
	if ps[3].Bucket.Name != "room1" {
		t.Errorf("least likely = %+v", ps[3])
	}
	total := 0.0
	for _, bp := range ps {
		total += bp.Prob
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("room probabilities sum to %v", total)
	}
}

func TestBucketQueryValidation(t *testing.T) {
	if _, err := BucketQuery(nil, []Bucket{{Name: "a", Lo: 0, Hi: 1}}); !errors.Is(err, ErrNoRows) {
		t.Error("empty rows accepted")
	}
	if _, err := BucketQuery(fourRows(), nil); !errors.Is(err, ErrBadArg) {
		t.Error("no buckets accepted")
	}
	if _, err := BucketQuery(fourRows(), []Bucket{{Name: "bad", Lo: 2, Hi: 1}}); !errors.Is(err, ErrBadArg) {
		t.Error("inverted bucket accepted")
	}
}

func TestMostLikelyBucket(t *testing.T) {
	rooms := []Bucket{
		{Name: "low", Lo: 0, Hi: 2},
		{Name: "high", Lo: 2, Hi: 4},
	}
	top, err := MostLikelyBucket(fourRows(), rooms)
	if err != nil {
		t.Fatal(err)
	}
	if top.Bucket.Name != "high" || math.Abs(top.Prob-0.7) > 1e-12 {
		t.Errorf("MostLikelyBucket = %+v", top)
	}
}
