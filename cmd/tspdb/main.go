// Command tspdb is an interactive shell (and one-shot runner) for the
// probabilistic time-series database: import raw values from CSV, run
// probabilistic view generation queries (Fig. 7 syntax), inspect results.
//
// Usage:
//
//	tspdb -load table=path.csv [-load table2=path2.csv] [-exec "QUERY"] [-out view.csv] [-parallel N] [-server URL]
//
// Without -exec the tool reads statements from stdin, one per line.
// -parallel sets the worker count for view-build inference and for the
// parallel read kernels behind EXPECTED/PROB/COUNT (0 = all cores,
// 1 = sequential); results are identical at every setting.
// With -server URL the shell becomes a thin client of a running tspdbd:
// -load uploads the CSVs and statements execute remotely via POST /query.
//
// A failing -exec statement exits non-zero; syntax errors point at the
// offending position:
//
//	tspdb: query: syntax error at position 8: expected VIEW, found "VEIW"
//	  CREATE VEIW pv AS ...
//	          ^
//
// Example:
//
//	tspdb -load raw_values=campus.csv \
//	      -exec "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=8 \
//	             WINDOW 90 CACHE DISTANCE 0.01 FROM raw_values WHERE t >= 100 AND t <= 500" \
//	      -out pv.csv
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/view"
)

type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	var loads loadFlags
	flag.Var(&loads, "load", "table=csvfile pair; repeatable")
	exec := flag.String("exec", "", "statement to execute (omit for interactive mode)")
	out := flag.String("out", "", "write the created view as CSV to this file")
	parallel := flag.Int("parallel", 0, "view-build inference and read-kernel workers (0 = all cores, 1 = sequential)")
	serverURL := flag.String("server", "", "tspdbd base URL; run as a thin client instead of in-process")
	flag.Parse()

	if err := run(loads, *exec, *out, *parallel, *serverURL); err != nil {
		fmt.Fprintln(os.Stderr, "tspdb:", formatError(err, *exec))
		os.Exit(1)
	}
}

// formatError renders a statement failure; syntax errors gain a caret line
// pointing at the offending position of stmt. In thin-client mode a 409
// from the server is labelled as a resumable conflict (out-of-order ingest
// timestamp, duplicate table/stream) so it is not mistaken for a malformed
// statement.
func formatError(err error, stmt string) string {
	var syn *query.SyntaxError
	if stmt != "" && errors.As(err, &syn) && syn.Pos >= 0 && syn.Pos <= len(stmt) {
		return fmt.Sprintf("%v\n  %s\n  %s^", err, stmt, strings.Repeat(" ", syn.Pos))
	}
	var apiErr *server.APIError
	if errors.As(err, &apiErr) && apiErr.Conflict() {
		return fmt.Sprintf("conflict with server state (resume past it, e.g. ingest a later timestamp): %v", err)
	}
	return err.Error()
}

// executor abstracts where a statement runs: the in-process engine or a
// remote tspdbd via the thin client.
type executor func(stmt, out string) error

func run(loads loadFlags, exec, out string, parallel int, serverURL string) error {
	// load registers one opened CSV under a table name, returning the row
	// count and the action verb for the progress line.
	var load func(name string, f *os.File) (int, string, error)
	var execute executor
	if serverURL != "" {
		if parallel != 0 {
			fmt.Fprintln(os.Stderr, "tspdb: -parallel is ignored with -server (set it on tspdbd)")
		}
		client := server.NewClient(strings.TrimRight(serverURL, "/"))
		load = func(name string, f *os.File) (int, string, error) {
			resp, err := client.CreateTableCSV(name, f)
			if err != nil {
				return 0, "", err
			}
			return resp.Rows, "uploaded", nil
		}
		execute = func(stmt, out string) error { return executeRemote(client, stmt, out) }
	} else {
		engine := repro.NewEngineWith(repro.EngineConfig{Parallelism: parallel})
		load = func(name string, f *os.File) (int, string, error) {
			s, err := repro.ReadSeriesCSV(f)
			if err != nil {
				return 0, "", err
			}
			if err := engine.RegisterSeries(name, s); err != nil {
				return 0, "", err
			}
			return s.Len(), "loaded", nil
		}
		execute = func(stmt, out string) error { return executeLocal(engine, stmt, out) }
	}

	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -load %q (want table=path.csv)", spec)
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		rows, verb, err := load(name, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s %s: %d rows\n", verb, name, rows)
	}

	if exec != "" {
		return execute(exec, out)
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Println("tspdb: enter statements, one per line (Ctrl-D to quit)")
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			fmt.Println()
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "quit") || strings.EqualFold(line, "exit") {
			return nil
		}
		if err := execute(line, out); err != nil {
			fmt.Fprintln(os.Stderr, "error:", formatError(err, line))
		}
	}
}

// executeRemote runs one statement on a tspdbd and prints its result.
func executeRemote(client *server.Client, stmt, out string) error {
	res, err := client.Exec(stmt)
	if err != nil {
		return err
	}
	switch res.Kind {
	case "view":
		v := res.View
		fmt.Printf("created view %q: %d rows (metric %s, delta=%g, n=%d)\n",
			v.Name, v.Rows, v.Metric, v.Delta, v.N)
		if res.Cache != nil {
			fmt.Printf("sigma-cache: %d entries, %d hits, %d misses, ~%d KiB\n",
				res.Cache.Entries, res.Cache.Hits, res.Cache.Misses, res.Cache.ApproxBytes/1024)
		}
		if out != "" {
			if err := writeRemoteViewCSV(client, v.Name, out); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", out)
		}
	case "rows":
		printRows(res.Columns, res.Rows)
	default:
		fmt.Println("ok")
	}
	fmt.Printf("(%.3fms)\n", res.ElapsedMS)
	return nil
}

func writeRemoteViewCSV(client *server.Client, viewName, path string) error {
	rows, err := client.AllViewRows(viewName)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "t,lambda,lo,hi,prob")
	for _, r := range rows.Rows {
		fmt.Fprintf(f, "%d,%d,%g,%g,%g\n", r.T, r.Lambda, r.Lo, r.Hi, r.Prob)
	}
	return nil
}

// executeLocal runs one statement on the in-process engine and prints its
// result.
func executeLocal(engine *repro.Engine, stmt, out string) error {
	res, err := engine.Exec(stmt)
	if err != nil {
		return err
	}
	switch res.Kind {
	case "view":
		printViewSummary(res)
		if out != "" {
			if err := writeViewCSV(res.View, out); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", out)
		}
	case "rows":
		printRows(res.Columns, res.Rows)
	default:
		fmt.Println("ok")
	}
	fmt.Printf("(%s)\n", res.Elapsed.Round(10*time.Microsecond))
	return nil
}

func printViewSummary(res *query.Result) {
	v := res.View
	fmt.Printf("created view %q: %d tuples x %d ranges = %d rows (metric %s, delta=%g)\n",
		v.Name, len(v.Times()), v.Omega.N, v.NumRows(), v.MetricName, v.Omega.Delta)
	if res.CacheStats != nil {
		st := res.CacheStats
		fmt.Printf("sigma-cache: %d entries, %d hits, %d misses, ~%d KiB\n",
			st.Entries, st.Hits, st.Misses, st.ApproxBytes/1024)
	}
}

func printRows(cols []string, rows [][]string) {
	fmt.Println(strings.Join(cols, "\t"))
	for _, r := range rows {
		fmt.Println(strings.Join(r, "\t"))
	}
	fmt.Printf("%d row(s)\n", len(rows))
}

func writeViewCSV(p *storage.ProbTable, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	v := &view.View{Omega: p.Omega, Rows: p.SnapshotRows()}
	return v.WriteCSV(f)
}
