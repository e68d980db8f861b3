package query

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// The parser must never panic, whatever the input: errors are the only
// acceptable failure mode for a query front-end.

func TestParseNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(input string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %q: %v", input, r)
			}
		}()
		_, _ = Parse(input)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Random token soups built from the grammar's own vocabulary exercise deeper
// parser states than raw bytes do.
func TestParseNeverPanicsOnTokenSoup(t *testing.T) {
	vocab := []string{
		"CREATE", "VIEW", "AS", "DENSITY", "OVER", "OMEGA", "delta", "n",
		"METRIC", "WINDOW", "CACHE", "DISTANCE", "MEMORY", "FROM", "WHERE",
		"AND", "SELECT", "SHOW", "TABLES", "DROP", "TABLE", "LIMIT",
		"EXPECTED", "PROB", "ANY", "ALLIN", "COUNT",
		"*", "=", ",", "(", ")", ">=", "<=", ">", "<",
		"1", "2.5", "-3", "1e9", "pv", "raw_values", "t", "r",
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(20)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = vocab[rng.Intn(len(vocab))]
		}
		input := strings.Join(parts, " ")
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", input, r)
				}
			}()
			_, _ = Parse(input)
		}()
	}
}

// Statements that parse successfully must round-trip through ExecStmt
// without panicking (errors are fine: tables may not exist).
func TestExecNeverPanicsOnParsedSoup(t *testing.T) {
	db := newTestDB(t, 200)
	if _, err := ExecWith(db, "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=2 WINDOW 90 FROM raw_values WHERE t >= 100 AND t <= 105", Options{}); err != nil {
		t.Fatal(err)
	}
	vocab := []string{
		"SELECT", "*", "EXPECTED", "PROB", "ANY", "(", ")", ",", "1", "5",
		"FROM", "pv", "raw_values", "WHERE", "t", ">=", "<=", "AND", "LIMIT", "3",
		"SHOW", "TABLES", "DROP", "TABLE",
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = vocab[rng.Intn(len(vocab))]
		}
		input := strings.Join(parts, " ")
		stmt, err := Parse(input)
		if err != nil {
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("exec panic on %q: %v", input, r)
				}
			}()
			_, _ = ExecStmtWith(db, stmt, Options{})
		}()
	}
}

// The lexer reports positions inside the input for every error.
func TestSyntaxErrorPositions(t *testing.T) {
	inputs := []string{"select @", "create view # x", "omega ="}
	for _, in := range inputs {
		_, err := Parse(in)
		if err == nil {
			continue
		}
		se, ok := err.(*SyntaxError)
		if !ok {
			continue
		}
		if se.Pos < 0 || se.Pos > len(in) {
			t.Errorf("error position %d outside input %q", se.Pos, in)
		}
	}
}
