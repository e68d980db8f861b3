package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/url"
	"strconv"

	"repro/internal/server"
	"repro/internal/timeseries"
	"repro/internal/view"
)

// opKind is the request shape; it decides how the op is rendered, which
// oracle checks it and which ladder rungs replay it.
type opKind int8

const (
	kindRangeProb opKind = iota // GET  /views/{v}/rangeprob?t=
	kindTopK                    // GET  /views/{v}/topk?t=&k=3
	kindBuckets                 // POST /views/{v}/buckets, 4 buckets
	kindSQLPoint                // POST /query SELECT PROB(lo,hi) ... WHERE t = x
	kindScalar                  // POST /query SELECT COUNT(lo,hi) over a window
	kindSeries                  // GET  /views/{v}/series?stats=expected,prob,count
	kindIngest                  // POST /tables/{t}/points
)

// op is one fully rendered request plus the parameters it was rendered
// from, which the oracle and the ladder's lower rungs need. Rendering
// happens before any timer starts.
type op struct {
	kind   opKind
	class  int8 // latency class within the workload (classPrimary, ...)
	method string
	path   string
	body   []byte

	view    string
	sql     string // the statement inside body, for /query ops
	t, tHi  int64  // point ops use t; window ops [t, tHi]
	lo, hi  float64
	buckets []server.BucketJSON
	points  []server.PointJSON
}

const (
	classPrimary int8 = iota
	classSecondary
	classOther
)

// viewSpan describes the part of a view ops may address: its time range,
// the raw value at each of its timestamps, the value range those cover and
// the half-width of one tuple's Omega grid (n*delta/2).
type viewSpan struct {
	view     string
	tLo, tHi int64
	vals     []float64 // raw value at tLo+i; the datasets' timestamps are consecutive
	vLo, vHi float64
	halfGrid float64
}

func newViewSpan(view string, raw *timeseries.Series, tLo, tHi int64, omega view.Omega) viewSpan {
	s := viewSpan{view: view, tLo: tLo, tHi: tHi, halfGrid: float64(omega.N) * omega.Delta / 2}
	s.vals = raw.TimeRange(tLo, tHi).Values()
	if int64(len(s.vals)) != tHi-tLo+1 {
		panic(fmt.Sprintf("view span [%d,%d] holds %d raw values", tLo, tHi, len(s.vals)))
	}
	s.vLo, s.vHi = s.vals[0], s.vals[0]
	for _, v := range s.vals {
		s.vLo, s.vHi = math.Min(s.vLo, v), math.Max(s.vHi, v)
	}
	return s
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only harness-built values of marshalable types reach here
	}
	return b
}

// round2 keeps rendered literals short.
func round2(v float64) float64 { return math.Round(v*100) / 100 }

// windowRange draws a value interval for a window op: a fifth to a half of
// the span's value range wide, somewhere inside it.
func (s viewSpan) windowRange(rng *rand.Rand) (lo, hi float64) {
	w := s.vHi - s.vLo
	lo = s.vLo + rng.Float64()*w*0.5
	hi = lo + w*(0.2+0.3*rng.Float64())
	return round2(lo), round2(hi)
}

// pointRange draws a value interval for a point op at t: one half-grid
// wide and overlapping the raw value, so that the answer is rarely 0 or 1.
func (s viewSpan) pointRange(rng *rand.Rand, t int64) (lo, hi float64) {
	lo = s.vals[t-s.tLo] - s.halfGrid*rng.Float64()
	return round2(lo), round2(lo + s.halfGrid)
}

func (s viewSpan) time(rng *rand.Rand) int64 { return s.tLo + rng.Int63n(s.tHi-s.tLo+1) }

func (s viewSpan) pointOp(rng *rand.Rand, kind opKind) op {
	o := op{kind: kind, view: s.view, t: s.time(rng)}
	o.lo, o.hi = s.pointRange(rng, o.t)
	base := "/views/" + url.PathEscape(s.view)
	switch kind {
	case kindRangeProb:
		o.method = "GET"
		o.path = fmt.Sprintf("%s/rangeprob?t=%d&lo=%s&hi=%s", base, o.t, fmtFloat(o.lo), fmtFloat(o.hi))
	case kindTopK:
		o.method = "GET"
		o.path = fmt.Sprintf("%s/topk?t=%d&k=3", base, o.t)
	case kindBuckets:
		// Four adjacent "rooms" (Fig. 1) tiling two half-grids around lo.
		w := s.halfGrid / 2
		for i := 0; i < 4; i++ {
			o.buckets = append(o.buckets, server.BucketJSON{
				Name: "room" + strconv.Itoa(i), Lo: round2(o.lo + float64(i-1)*w), Hi: round2(o.lo + float64(i)*w),
			})
		}
		o.method = "POST"
		o.path = base + "/buckets"
		o.body = mustJSON(server.BucketsRequest{T: o.t, Buckets: o.buckets})
	case kindSQLPoint:
		o.method = "POST"
		o.path = "/query"
		o.sql = fmt.Sprintf("SELECT PROB(%s, %s) FROM %s WHERE t = %d", fmtFloat(o.lo), fmtFloat(o.hi), s.view, o.t)
		o.body = mustJSON(server.QueryRequest{Q: o.sql})
	default:
		panic("pointOp: not a point kind")
	}
	return o
}

// scalarOp is SELECT COUNT over groups consecutive timestamps starting at
// a random offset: many rows in, one number out.
func (s viewSpan) scalarOp(rng *rand.Rand, groups int64) op {
	o := s.windowOp(rng, groups)
	o.kind = kindScalar
	o.method = "POST"
	o.path = "/query"
	o.sql = fmt.Sprintf("SELECT COUNT(%s, %s) FROM %s WHERE t >= %d AND t <= %d",
		fmtFloat(o.lo), fmtFloat(o.hi), s.view, o.t, o.tHi)
	o.body = mustJSON(server.QueryRequest{Q: o.sql})
	return o
}

// seriesOp is the fused three-statistic endpoint over groups timestamps:
// one scan in, about two points of JSON per group out.
func (s viewSpan) seriesOp(rng *rand.Rand, groups int64) op {
	o := s.windowOp(rng, groups)
	o.kind = kindSeries
	o.method = "GET"
	o.path = fmt.Sprintf("/views/%s/series?stats=expected,prob,count&lo=%s&hi=%s&from=%d&to=%d",
		url.PathEscape(s.view), fmtFloat(o.lo), fmtFloat(o.hi), o.t, o.tHi)
	return o
}

func (s viewSpan) windowOp(rng *rand.Rand, groups int64) op {
	if n := s.tHi - s.tLo + 1; groups > n {
		groups = n
	}
	o := op{view: s.view}
	o.t = s.tLo + rng.Int63n(s.tHi-s.tLo+1-groups+1)
	o.tHi = o.t + groups - 1
	o.lo, o.hi = s.windowRange(rng)
	return o
}

// ingestOps renders the points of series from index from on as consecutive
// batches of batch points for table, at most count of them.
func ingestOps(table string, series *timeseries.Series, from, batch, count int) []op {
	ts, vs := series.Times(), series.Values()
	var ops []op
	for i := from; i+batch <= len(ts) && len(ops) < count; i += batch {
		pts := make([]server.PointJSON, batch)
		for j := range pts {
			pts[j] = server.PointJSON{T: ts[i+j], V: vs[i+j]}
		}
		ops = append(ops, op{
			kind: kindIngest, method: "POST", points: pts,
			path: "/tables/" + url.PathEscape(table) + "/points",
			body: mustJSON(server.IngestRequest{Points: pts}),
		})
	}
	return ops
}

// withClass stamps every op with a latency class.
func withClass(ops []op, class int8) []op {
	for i := range ops {
		ops[i].class = class
	}
	return ops
}

// opsHash fingerprints an operation list: same seed, same hash.
func opsHash(lists ...[]op) uint64 {
	h := fnv.New64a()
	for _, ops := range lists {
		for i := range ops {
			h.Write([]byte(ops[i].method))
			h.Write([]byte{0})
			h.Write([]byte(ops[i].path))
			h.Write([]byte{0})
			h.Write(ops[i].body)
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}
