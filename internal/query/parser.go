package query

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// Parse lexes and parses a single statement. It may end in one ';'; any
// input after that but white space is an error, never a dropped statement.
func Parse(input string) (Stmt, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != TokEOF {
		return nil, p.errf("unexpected %q after statement", p.peek().Text)
	}
	if end := p.peek(); end.Text == ";" {
		if rest := strings.TrimLeftFunc(input[end.Pos+1:], unicode.IsSpace); rest != "" {
			return nil, &SyntaxError{Pos: len(input) - len(rest), Msg: "unexpected input after ';': a query is one statement"}
		}
	}
	return stmt, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) peek() Token { return p.toks[p.pos] }

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Pos: p.peek().Pos, Msg: fmt.Sprintf(format, args...)}
}

// expectKeyword consumes an identifier matching kw (case-insensitive).
func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if !keywordEq(t, kw) {
		return p.errf("expected %s, found %q", strings.ToUpper(kw), t.Text)
	}
	p.next()
	return nil
}

// acceptKeyword consumes kw if present and reports whether it did.
func (p *parser) acceptKeyword(kw string) bool {
	if keywordEq(p.peek(), kw) {
		p.next()
		return true
	}
	return false
}

// expectIdent consumes and returns an identifier.
func (p *parser) expectIdent(what string) (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errf("expected %s, found %q", what, t.Text)
	}
	p.next()
	return t.Text, nil
}

// expectNumber consumes and returns a numeric literal.
func (p *parser) expectNumber(what string) (float64, error) {
	t := p.peek()
	if t.Kind != TokNumber {
		return 0, p.errf("expected %s, found %q", what, t.Text)
	}
	v, err := strconv.ParseFloat(t.Text, 64)
	if err != nil {
		return 0, p.errf("malformed number %q", t.Text)
	}
	p.next()
	return v, nil
}

func (p *parser) expect(kind TokenKind) error {
	t := p.peek()
	if t.Kind != kind {
		return p.errf("expected %s, found %q", kind, t.Text)
	}
	p.next()
	return nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	switch {
	case keywordEq(t, "create"):
		return p.parseCreateView()
	case keywordEq(t, "select"):
		return p.parseSelect()
	case keywordEq(t, "show"):
		p.next()
		if err := p.expectKeyword("tables"); err != nil {
			return nil, err
		}
		return &ShowTablesStmt{}, nil
	case keywordEq(t, "drop"):
		p.next()
		if err := p.expectKeyword("table"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent("table name")
		if err != nil {
			return nil, err
		}
		return &DropStmt{Table: name}, nil
	default:
		return nil, p.errf("expected CREATE, SELECT, SHOW or DROP, found %q", t.Text)
	}
}

// parseCreateView parses the Fig. 7 grammar with the optional extensions.
func (p *parser) parseCreateView() (Stmt, error) {
	if err := p.expectKeyword("create"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("view"); err != nil {
		return nil, err
	}
	stmt := &CreateViewStmt{}
	var err error
	if stmt.ViewName, err = p.expectIdent("view name"); err != nil {
		return nil, err
	}
	if err = p.expectKeyword("as"); err != nil {
		return nil, err
	}
	if err = p.expectKeyword("density"); err != nil {
		return nil, err
	}
	if stmt.ValueCol, err = p.expectIdent("value column"); err != nil {
		return nil, err
	}
	if err = p.expectKeyword("over"); err != nil {
		return nil, err
	}
	if stmt.TimeCol, err = p.expectIdent("time column"); err != nil {
		return nil, err
	}

	// OMEGA delta=<num>, n=<num>
	if err = p.expectKeyword("omega"); err != nil {
		return nil, err
	}
	sawDelta, sawN := false, false
	for {
		key, err := p.expectIdent("omega parameter (delta or n)")
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokEquals); err != nil {
			return nil, err
		}
		v, err := p.expectNumber("omega parameter value")
		if err != nil {
			return nil, err
		}
		switch strings.ToLower(key) {
		case "delta":
			stmt.Delta = v
			sawDelta = true
		case "n":
			if v != math.Trunc(v) {
				return nil, p.errf("n must be an integer, got %v", v)
			}
			stmt.N = int(v)
			sawN = true
		default:
			return nil, p.errf("unknown omega parameter %q", key)
		}
		if p.peek().Kind == TokComma {
			p.next()
			continue
		}
		break
	}
	if !sawDelta || !sawN {
		return nil, p.errf("OMEGA requires both delta and n")
	}

	// Optional clauses before FROM: METRIC, WINDOW, CACHE (any order).
	for {
		switch {
		case p.acceptKeyword("metric"):
			if stmt.Metric != nil {
				return nil, p.errf("duplicate METRIC clause")
			}
			spec, err := p.parseMetricSpec()
			if err != nil {
				return nil, err
			}
			stmt.Metric = spec
		case p.acceptKeyword("window"):
			if stmt.Window != 0 {
				return nil, p.errf("duplicate WINDOW clause")
			}
			v, err := p.expectNumber("window size")
			if err != nil {
				return nil, err
			}
			if v != math.Trunc(v) || v <= 0 {
				return nil, p.errf("window size must be a positive integer")
			}
			stmt.Window = int(v)
		case p.acceptKeyword("cache"):
			if stmt.Cache != nil {
				return nil, p.errf("duplicate CACHE clause")
			}
			spec := &CacheSpec{}
			switch {
			case p.acceptKeyword("distance"):
				v, err := p.expectNumber("distance constraint")
				if err != nil {
					return nil, err
				}
				spec.Distance = v
			case p.acceptKeyword("memory"):
				v, err := p.expectNumber("memory constraint")
				if err != nil {
					return nil, err
				}
				if v != math.Trunc(v) || v <= 0 {
					return nil, p.errf("memory constraint must be a positive integer")
				}
				spec.Memory = int(v)
			default:
				return nil, p.errf("CACHE requires DISTANCE or MEMORY")
			}
			stmt.Cache = spec
		default:
			goto fromClause
		}
	}

fromClause:
	if err = p.expectKeyword("from"); err != nil {
		return nil, err
	}
	if stmt.From, err = p.expectIdent("source table"); err != nil {
		return nil, err
	}

	// Optional WHERE t >= lo AND t <= hi (either or both bounds).
	if p.acceptKeyword("where") {
		tr, err := p.parseTimeRange(stmt.TimeCol)
		if err != nil {
			return nil, err
		}
		stmt.Where = tr
	}
	return stmt, nil
}

// parseMetricSpec parses METRIC <name>[(k=v, ...)].
func (p *parser) parseMetricSpec() (*MetricSpec, error) {
	name, err := p.expectIdent("metric name")
	if err != nil {
		return nil, err
	}
	spec := &MetricSpec{Name: strings.ToUpper(name), Params: map[string]float64{}}
	if p.peek().Kind != TokLParen {
		return spec, nil
	}
	p.next() // consume (
	for {
		key, err := p.expectIdent("metric parameter")
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokEquals); err != nil {
			return nil, err
		}
		v, err := p.expectNumber("metric parameter value")
		if err != nil {
			return nil, err
		}
		spec.Params[strings.ToLower(key)] = v
		if p.peek().Kind == TokComma {
			p.next()
			continue
		}
		break
	}
	if err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return spec, nil
}

// parseTimeRange parses a conjunction <col> <op> <num> [AND ...] of bounds
// (op one of >=, >, <=, <, =) in any order; at least one bound is
// required, and the range is their intersection.
func (p *parser) parseTimeRange(timeCol string) (*TimeRange, error) {
	tr := &TimeRange{Lo: math.MinInt64, Hi: math.MaxInt64}
	loOK, hiOK := true, true // false: no int64 time meets that side's bound
	// Bounds intersect: each raises Lo or lowers Hi, never the other way.
	raise := func(t int64, ok bool) { tr.Lo, loOK = max(tr.Lo, t), loOK && ok }
	lower := func(t int64, ok bool) { tr.Hi, hiOK = min(tr.Hi, t), hiOK && ok }
	seen := 0
	for {
		col, err := p.expectIdent("time column in WHERE")
		if err != nil {
			return nil, err
		}
		if !strings.EqualFold(col, timeCol) {
			return nil, p.errf("WHERE references %q; the view is OVER %q", col, timeCol)
		}
		op := p.next()
		v, err := p.expectNumber("bound")
		if err != nil {
			return nil, err
		}
		switch op.Kind {
		case TokGE:
			raise(atLeast(math.Ceil(v), false))
		case TokGT:
			raise(atLeast(math.Floor(v), true))
		case TokLE:
			lower(atMost(math.Floor(v), false))
		case TokLT:
			lower(atMost(math.Ceil(v), true))
		case TokEquals:
			raise(atLeast(math.Ceil(v), false))
			lower(atMost(math.Floor(v), false))
		default:
			return nil, p.errf("expected a comparison operator, found %q", op.Text)
		}
		seen++
		if p.acceptKeyword("and") {
			continue
		}
		break
	}
	if seen == 0 {
		return nil, p.errf("WHERE requires at least one bound")
	}
	if !loOK || !hiOK {
		return nil, p.errf("empty time range: no int64 time meets the WHERE bounds")
	}
	if tr.Lo > tr.Hi {
		return nil, p.errf("empty time range [%d, %d]", tr.Lo, tr.Hi)
	}
	return tr, nil
}

// Time bounds saturate: Go leaves converting a float outside int64's range
// implementation-defined.
const two63 = 0x1p63 // -two63 is MinInt64; two63 is MaxInt64+1

// atLeast returns the least int64 t >= f, or t > f when strict, for an
// integer-valued f; ok is false when there is none.
func atLeast(f float64, strict bool) (t int64, ok bool) {
	switch {
	case f < -two63:
		return math.MinInt64, true
	case f >= two63:
		return 0, false
	case strict:
		return int64(f) + 1, true // f < 2^63 is at most MaxInt64-1023
	}
	return int64(f), true
}

// atMost returns the greatest int64 t <= f, or t < f when strict, for an
// integer-valued f; ok is false when there is none.
func atMost(f float64, strict bool) (t int64, ok bool) {
	switch {
	case f >= two63:
		return math.MaxInt64, true
	case f < -two63, strict && f == -two63:
		return 0, false
	case strict:
		return int64(f) - 1, true
	}
	return int64(f), true
}

// parseSelect parses SELECT (*|aggregate) FROM <table> [WHERE ...] [LIMIT k].
func (p *parser) parseSelect() (Stmt, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	if p.peek().Kind == TokStar {
		p.next()
	} else {
		agg, err := p.parseAggregate()
		if err != nil {
			return nil, err
		}
		stmt.Agg = agg
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	var err error
	if stmt.Table, err = p.expectIdent("table name"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("where") {
		// SELECT's WHERE always constrains the time column "t".
		tr, err := p.parseTimeRange("t")
		if err != nil {
			return nil, err
		}
		stmt.Where = tr
	}
	return p.finishSelect(stmt)
}

// finishSelect parses the optional LIMIT clause.
func (p *parser) finishSelect(stmt *SelectStmt) (Stmt, error) {
	if p.acceptKeyword("limit") {
		v, err := p.expectNumber("limit")
		if err != nil {
			return nil, err
		}
		if v != math.Trunc(v) || v <= 0 {
			return nil, p.errf("LIMIT must be a positive integer")
		}
		stmt.Limit = int(v)
	}
	return stmt, nil
}

// parseAggregate parses EXPECTED | PROB(lo, hi) | ANY(lo, hi) |
// ALLIN(lo, hi) | COUNT(lo, hi).
func (p *parser) parseAggregate() (*AggregateSpec, error) {
	name, err := p.expectIdent("aggregate name")
	if err != nil {
		return nil, err
	}
	spec := &AggregateSpec{Name: strings.ToUpper(name)}
	switch spec.Name {
	case "EXPECTED":
		return spec, nil
	case "PROB", "ANY", "ALLIN", "COUNT":
		if err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		lo, err := p.expectNumber("range lower bound")
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokComma); err != nil {
			return nil, err
		}
		hi, err := p.expectNumber("range upper bound")
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		if !(lo <= hi) {
			return nil, p.errf("aggregate range [%v, %v] is empty", lo, hi)
		}
		spec.Lo, spec.Hi, spec.HasRange = lo, hi, true
		return spec, nil
	default:
		return nil, p.errf("unknown aggregate %q (want EXPECTED, PROB, ANY, ALLIN or COUNT)", name)
	}
}
