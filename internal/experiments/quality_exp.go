package experiments

import (
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/quality"
	"repro/internal/timeseries"
	"repro/internal/view"
)

// TableIIRow is one row of the dataset summary (Table II).
type TableIIRow = dataset.Info

// TableII regenerates the dataset summary.
func TableII(s Scale) ([]TableIIRow, error) {
	d := s.load()
	campus, err := dataset.CampusInfo(d.campus)
	if err != nil {
		return nil, err
	}
	car, err := dataset.CarInfo(d.car)
	if err != nil {
		return nil, err
	}
	return []TableIIRow{campus, car}, nil
}

// Fig10Row is one point of the density-distance comparison (Fig. 10).
type Fig10Row struct {
	Dataset  string
	Metric   string
	H        int
	Distance float64
	N        int // PIT values evaluated
}

// Fig10 compares the quality (density distance, Eq. 1) of the four dynamic
// density metrics across window sizes on both datasets.
func Fig10(s Scale) ([]Fig10Row, error) {
	d := s.load()
	var rows []Fig10Row
	for _, ds := range []struct {
		name   string
		series *timeseries.Series
	}{{"campus", d.campus}, {"car", d.car}} {
		if err := checkWindows(s.Windows, ds.series.Len()); err != nil {
			return nil, err
		}
		metrics, err := s.metricSet(ds.name, 1)
		if err != nil {
			return nil, err
		}
		for _, h := range s.Windows {
			for _, name := range MetricOrder {
				m := metrics[name]
				if h < m.MinWindow() {
					continue
				}
				res, err := quality.Evaluate(ds.series, m, h, s.Stride)
				if err != nil {
					return nil, err
				}
				rows = append(rows, Fig10Row{
					Dataset: ds.name, Metric: name, H: h,
					Distance: res.Distance, N: res.N,
				})
			}
		}
	}
	return rows, nil
}

// Fig11Row is one point of the efficiency comparison (Fig. 11).
type Fig11Row struct {
	Dataset     string
	Metric      string
	H           int
	AvgInferSec float64 // average seconds per density inference
}

// Fig11 measures the average time per density inference for each metric and
// window size (the paper's Fig. 11, log-scale y).
func Fig11(s Scale) ([]Fig11Row, error) {
	d := s.load()
	var rows []Fig11Row
	for _, ds := range []struct {
		name   string
		series *timeseries.Series
	}{{"campus", d.campus}, {"car", d.car}} {
		if err := checkWindows(s.Windows, ds.series.Len()); err != nil {
			return nil, err
		}
		metrics, err := s.metricSet(ds.name, 1)
		if err != nil {
			return nil, err
		}
		for _, h := range s.Windows {
			for _, name := range MetricOrder {
				m := metrics[name]
				if h < m.MinWindow() {
					continue
				}
				start := time.Now()
				tuples, err := view.TuplesFromSeries(ds.series, m, h, math.MinInt64, math.MaxInt64, s.Stride, 1)
				if err != nil {
					return nil, err
				}
				// checkWindows leaves at least two windows per series.
				rows = append(rows, Fig11Row{
					Dataset: ds.name, Metric: name, H: h,
					AvgInferSec: time.Since(start).Seconds() / float64(len(tuples)),
				})
			}
		}
	}
	return rows, nil
}

// Fig12Row is one point of the model-order sweep (Fig. 12).
type Fig12Row struct {
	Metric   string
	P        int // ARMA(p, 0) order
	Distance float64
}

// Fig12 measures the effect of the ARMA(p,0) model order on density distance
// for UT, VT and ARMA-GARCH on campus-data.
func Fig12(s Scale) ([]Fig12Row, error) {
	d := s.load()
	// A small window makes the overfitting effect the paper reports visible:
	// fitting ARMA(8,0) on ~30 samples shrinks in-sample residuals, the
	// GARCH variance underestimates, and calibration degrades with order.
	h := 30
	if len(s.Windows) > 0 {
		h = s.Windows[0]
	}
	var rows []Fig12Row
	for _, p := range s.ModelOrders {
		metrics, err := s.metricSet("campus", p)
		if err != nil {
			return nil, err
		}
		for _, name := range []string{"UT", "VT", "ARMA-GARCH"} {
			m := metrics[name]
			hh := h
			if hh < m.MinWindow() {
				hh = m.MinWindow()
			}
			res, err := quality.Evaluate(d.campus, m, hh, s.Stride)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig12Row{Metric: name, P: p, Distance: res.Distance})
		}
	}
	return rows, nil
}
