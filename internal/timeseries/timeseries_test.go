package timeseries

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func mustSeries(t *testing.T, pts []Point) *Series {
	t.Helper()
	s, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsUnsortedTimestamps(t *testing.T) {
	_, err := New([]Point{{T: 1, V: 1}, {T: 1, V: 2}})
	if !errors.Is(err, ErrUnsorted) {
		t.Errorf("duplicate timestamp accepted: %v", err)
	}
	_, err = New([]Point{{T: 2, V: 1}, {T: 1, V: 2}})
	if !errors.Is(err, ErrUnsorted) {
		t.Errorf("decreasing timestamp accepted: %v", err)
	}
}

func TestNewCopiesInput(t *testing.T) {
	pts := []Point{{T: 1, V: 1}, {T: 2, V: 2}}
	s := mustSeries(t, pts)
	pts[0].V = 99
	p, _ := s.At(0)
	if p.V != 1 {
		t.Error("New shares storage with caller")
	}
}

func TestFromValues(t *testing.T) {
	s := FromValues([]float64{10, 20, 30})
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	p, err := s.At(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.T != 2 || p.V != 20 {
		t.Errorf("At(1) = %+v", p)
	}
	if _, err := s.At(3); !errors.Is(err, ErrOutOfRange) {
		t.Error("out-of-range At not detected")
	}
	if _, err := s.At(-1); !errors.Is(err, ErrOutOfRange) {
		t.Error("negative At not detected")
	}
}

func TestValuesAndTimesAreCopies(t *testing.T) {
	s := FromValues([]float64{1, 2})
	vs := s.Values()
	vs[0] = 42
	p, _ := s.At(0)
	if p.V != 1 {
		t.Error("Values shares storage")
	}
	ts := s.Times()
	if ts[0] != 1 || ts[1] != 2 {
		t.Errorf("Times = %v", ts)
	}
}

func TestAppendOnlineMode(t *testing.T) {
	s := FromValues([]float64{1})
	if err := s.Append(Point{T: 2, V: 5}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Error("append did not grow series")
	}
	if err := s.Append(Point{T: 2, V: 6}); !errors.Is(err, ErrUnsorted) {
		t.Error("non-increasing append accepted")
	}
	empty := &Series{}
	if err := empty.Append(Point{T: -5, V: 1}); err != nil {
		t.Errorf("append to empty series failed: %v", err)
	}
}

func TestSlice(t *testing.T) {
	s := FromValues([]float64{1, 2, 3, 4, 5})
	sub, err := s.Slice(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 3 {
		t.Fatalf("sub.Len = %d", sub.Len())
	}
	want := []float64{2, 3, 4}
	for i, v := range sub.Values() {
		if v != want[i] {
			t.Errorf("sub[%d] = %v", i, v)
		}
	}
	if _, err := s.Slice(3, 2); !errors.Is(err, ErrOutOfRange) {
		t.Error("inverted slice accepted")
	}
	if _, err := s.Slice(0, 6); !errors.Is(err, ErrOutOfRange) {
		t.Error("overlong slice accepted")
	}
	// Mutating the slice must not affect the parent.
	_ = sub.SetValue(0, 99)
	p, _ := s.At(1)
	if p.V != 2 {
		t.Error("Slice shares storage")
	}
}

func TestTimeRange(t *testing.T) {
	s := mustSeries(t, []Point{{10, 1}, {20, 2}, {30, 3}, {40, 4}})
	sub := s.TimeRange(15, 35)
	if sub.Len() != 2 {
		t.Fatalf("TimeRange len = %d", sub.Len())
	}
	if sub.Values()[0] != 2 || sub.Values()[1] != 3 {
		t.Errorf("TimeRange values = %v", sub.Values())
	}
	if s.TimeRange(100, 200).Len() != 0 {
		t.Error("empty range should give empty series")
	}
	all := s.TimeRange(10, 40)
	if all.Len() != 4 {
		t.Error("inclusive bounds wrong")
	}
}

func TestSummarize(t *testing.T) {
	s := mustSeries(t, []Point{{0, 2}, {2, 4}, {4, 6}})
	sum, err := s.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 3 || sum.Min != 2 || sum.Max != 6 || sum.Mean != 4 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.MeanInterval != 2 {
		t.Errorf("MeanInterval = %v", sum.MeanInterval)
	}
	if sum.FirstT != 0 || sum.LastT != 4 {
		t.Errorf("time bounds = %d..%d", sum.FirstT, sum.LastT)
	}
	empty := &Series{}
	if _, err := empty.Summarize(); !errors.Is(err, ErrEmpty) {
		t.Error("empty summary accepted")
	}
}

func TestCloneAndSetValue(t *testing.T) {
	s := FromValues([]float64{1, 2, 3})
	c := s.Clone()
	if err := c.SetValue(1, 99); err != nil {
		t.Fatal(err)
	}
	orig, _ := s.At(1)
	if orig.V != 2 {
		t.Error("Clone shares storage")
	}
	if err := c.SetValue(5, 0); !errors.Is(err, ErrOutOfRange) {
		t.Error("out-of-range SetValue accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := mustSeries(t, []Point{{1, 1.5}, {2, -2.25}, {3, 1e-9}})
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() {
		t.Fatalf("round trip length %d", back.Len())
	}
	for i := 0; i < s.Len(); i++ {
		a, _ := s.At(i)
		b, _ := back.At(i)
		if a != b {
			t.Errorf("point %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestReadCSVHeaderless(t *testing.T) {
	s, err := ReadCSV(strings.NewReader("1,2.5\n2,3.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); !errors.Is(err, ErrEmpty) {
		t.Error("empty input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("t,value\n")); !errors.Is(err, ErrEmpty) {
		t.Error("header-only input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\nbad,row\n")); !errors.Is(err, ErrBadCSV) {
		t.Error("bad body row accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n2,NaN\n")); !errors.Is(err, ErrBadCSV) {
		t.Error("NaN value accepted")
	}
	if _, err := ReadCSV(strings.NewReader("2,2\n1,3\n")); !errors.Is(err, ErrUnsorted) {
		t.Error("unsorted CSV accepted")
	}
}

func TestDiff(t *testing.T) {
	s := FromValues([]float64{1, 4, 9, 16})
	d := s.Diff()
	want := []float64{3, 5, 7}
	if len(d) != len(want) {
		t.Fatalf("Diff len = %d", len(d))
	}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("Diff[%d] = %v", i, d[i])
		}
	}
	if FromValues([]float64{1}).Diff() != nil {
		t.Error("Diff of singleton should be nil")
	}
}
