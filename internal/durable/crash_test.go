package durable

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal/faultfs"
)

// scriptOp is one logical catalog mutation of a crash-test script. An op
// is acknowledged iff run returns nil; the crash-recovery contract is
// stated entirely in terms of acknowledged ops.
type scriptOp struct {
	name string
	run  func(st *Store) error
}

func opCreateRaw(name string, pts []timeseries.Point) scriptOp {
	return scriptOp{"create-" + name, func(st *Store) error {
		s, err := timeseries.New(pts)
		if err != nil {
			return err
		}
		_, err = st.DB().CreateRawTable(name, "", "", s)
		return err
	}}
}

func opStoreView(name string, rows []view.Row) scriptOp {
	return scriptOp{"store-" + name, func(st *Store) error {
		p := &storage.ProbTable{Name: name, Source: "s", Omega: view.Omega{Delta: 0.5, N: 2}}
		if len(rows) > 0 {
			if err := p.AppendRows(rows); err != nil {
				return err
			}
		}
		return st.DB().StoreView(p)
	}}
}

// opStep commits one ingest step; with no rows it is a raw-only step.
func opStep(source, viewName string, p timeseries.Point, rows []view.Row) scriptOp {
	return scriptOp{fmt.Sprintf("step-%s-t%d", source, p.T), func(st *Store) error {
		pv, err := st.DB().View(viewName)
		if err != nil {
			return err
		}
		return st.DB().CommitStep(source, p, pv, rows)
	}}
}

// opSteps commits one multi-point ingest request.
func opSteps(source, viewName string, pts []timeseries.Point, rows []view.Row) scriptOp {
	return scriptOp{fmt.Sprintf("steps-%s-t%d-n%d", source, pts[0].T, len(pts)), func(st *Store) error {
		pv, err := st.DB().View(viewName)
		if err != nil {
			return err
		}
		return st.DB().CommitSteps(source, pts, pv, rows)
	}}
}

func opDrop(name string) scriptOp {
	return scriptOp{"drop-" + name, func(st *Store) error { return st.DB().Drop(name) }}
}

func opCheckpoint() scriptOp {
	return scriptOp{"checkpoint", func(st *Store) error { return st.Checkpoint() }}
}

// scriptStates runs the script on a clean filesystem and returns the
// observable state after the open and after every op — states[i] is the
// world with exactly i ops acknowledged — plus the total number of
// filesystem crash points the run passed through.
func scriptStates(t *testing.T, script []scriptOp) ([]map[string]tableDump, int) {
	t.Helper()
	fs := faultfs.New()
	st := openStore(t, fs, Options{Fsync: true, CheckpointBytes: -1})
	states := []map[string]tableDump{dumpDB(t, st.DB())}
	for _, op := range script {
		if err := op.run(st); err != nil {
			t.Fatalf("clean run, op %s: %v", op.name, err)
		}
		states = append(states, dumpDB(t, st.DB()))
	}
	total := fs.Ops()
	if err := st.Close(); err != nil {
		t.Fatalf("clean run close: %v", err)
	}
	return states, total
}

// runCrashTrial arms a crash at filesystem op k, drives the script until
// the store refuses an op, recovers from the crash image, and asserts the
// recovered state is exactly the acknowledged prefix: states[acked], or —
// only when unsynced bytes may survive — states[acked+1] for the one op
// whose record reached the page cache but was never acknowledged. Any
// other outcome is a lost ack or a phantom row.
func runCrashTrial(t *testing.T, script []scriptOp, states []map[string]tableDump, k int, mode faultfs.Mode) {
	t.Helper()
	fs := faultfs.New()
	fs.FailAt(k, mode)
	acked := 0
	st, err := Open(fs, "data", Options{Fsync: true, CheckpointBytes: -1})
	if err == nil {
		for _, op := range script {
			if err := op.run(st); err != nil {
				break
			}
			acked++
		}
		st.Close()
	}
	if !fs.Crashed() {
		t.Fatalf("fault at fs op %d never fired", k)
	}

	img := fs.CrashImage()
	st2, err := Open(img, "data", Options{Fsync: true, CheckpointBytes: -1})
	if err != nil {
		t.Fatalf("recovery after crash at fs op %d (%v, %d acked): %v", k, mode, acked, err)
	}
	got := dumpDB(t, st2.DB())
	if err := st2.Close(); err != nil {
		t.Fatalf("close recovered store: %v", err)
	}
	if reflect.DeepEqual(got, states[acked]) {
		return
	}
	if mode != faultfs.DropUnsynced && acked+1 < len(states) && reflect.DeepEqual(got, states[acked+1]) {
		return
	}
	t.Fatalf("crash at fs op %d (%v): recovered state is neither the %d-op acked prefix nor its in-flight successor:\n got %+v\nwant %+v",
		k, mode, acked, got, states[acked])
}

// crashModes is the survival matrix every fault site is tested under.
var crashModes = []faultfs.Mode{faultfs.DropUnsynced, faultfs.KeepHalfUnsynced, faultfs.KeepAllUnsynced}

// TestCrashPointMatrix is the exhaustive harness: a fixed script touching
// every record kind production writes (create-raw, store-view, steps of
// one point and of several, with and without rows, drop) and two
// checkpoints, killed at every mutating filesystem operation — every WAL
// write and sync, every segment write, the manifest rename, the WAL trim —
// under all three cache-survival modes. After each crash, recovery must
// reconstruct exactly the acknowledged prefix of requests: no lost acks,
// no phantom rows, and no request recovered in part.
func TestCrashPointMatrix(t *testing.T) {
	script := []scriptOp{
		opCreateRaw("s", []timeseries.Point{{T: 1, V: 10}, {T: 2, V: 11}}),
		opStoreView("v", nil),
		opStep("s", "v", timeseries.Point{T: 3, V: 1}, []view.Row{
			{T: 3, Lambda: 0, Lo: 1, Hi: 1.5, Prob: 0.7}, {T: 3, Lambda: 1, Lo: 1.5, Hi: 2, Prob: 0.3},
		}),
		opStep("s", "v", timeseries.Point{T: 4, V: 2}, []view.Row{
			{T: 4, Lambda: 0, Lo: 2, Hi: 2.5, Prob: 0.6},
		}),
		opStep("s", "v", timeseries.Point{T: 5, V: 3}, nil),
		opCreateRaw("aux", nil),
		opStoreView("w", []view.Row{{T: 1, Lambda: 0, Lo: 3, Hi: 3.5, Prob: 0.5}}),
		opStep("aux", "w", timeseries.Point{T: 1, V: -1}, nil),
		opCheckpoint(),
		opStep("s", "v", timeseries.Point{T: 6, V: 4}, []view.Row{
			{T: 6, Lambda: 0, Lo: 4, Hi: 4.5, Prob: 0.8}, {T: 6, Lambda: 1, Lo: 4.5, Hi: 5, Prob: 0.2},
		}),
		opDrop("aux"),
		opStep("s", "v", timeseries.Point{T: 7, V: 4.5}, []view.Row{
			{T: 7, Lambda: 0, Lo: 5, Hi: 5.5, Prob: 0.9},
		}),
		opSteps("s", "v", []timeseries.Point{{T: 8, V: 5}, {T: 9, V: 5.5}, {T: 10, V: 6}}, []view.Row{
			{T: 8, Lambda: 0, Lo: 5, Hi: 5.5, Prob: 0.4}, {T: 8, Lambda: 1, Lo: 5.5, Hi: 6, Prob: 0.6},
			{T: 10, Lambda: 0, Lo: 6, Hi: 6.5, Prob: 1},
		}),
		opCheckpoint(),
		opStep("s", "v", timeseries.Point{T: 11, V: 5}, []view.Row{
			{T: 11, Lambda: 0, Lo: 5, Hi: 5.5, Prob: 1},
		}),
		opSteps("s", "v", []timeseries.Point{{T: 12, V: 7}, {T: 13, V: 7.5}}, []view.Row{
			{T: 12, Lambda: 0, Lo: 7, Hi: 7.5, Prob: 1},
			{T: 13, Lambda: 0, Lo: 7.5, Hi: 8, Prob: 0.5}, {T: 13, Lambda: 1, Lo: 8, Hi: 8.5, Prob: 0.5},
		}),
	}
	states, total := scriptStates(t, script)
	if total < len(script) {
		t.Fatalf("script passed only %d crash points", total)
	}
	for k := 1; k <= total; k++ {
		for _, mode := range crashModes {
			k, mode := k, mode
			t.Run(fmt.Sprintf("op%03d-%v", k, mode), func(t *testing.T) {
				runCrashTrial(t, script, states, k, mode)
			})
		}
	}
}

// randomScript generates a seeded, always-valid workload: streamed steps
// with rows, multi-point requests, raw-only steps (on the streamed table
// and on a second raw table that comes and goes), wholesale view
// replacement, create/drop churn and explicit checkpoints. All data is fixed at generation time, so
// a script replays identically on every filesystem.
func randomScript(rng *rand.Rand, n int) []scriptOp {
	script := []scriptOp{
		opCreateRaw("s", []timeseries.Point{{T: 1, V: 0}}),
		opStoreView("v", nil),
	}
	rawT, auxT := int64(1), int64(1)
	lambda := 0
	aux := false
	rows := func(tt int64, k int) []view.Row {
		out := make([]view.Row, k)
		for i := range out {
			lo := rng.Float64() * 10
			out[i] = view.Row{T: tt, Lambda: lambda, Lo: lo, Hi: lo + 0.5, Prob: rng.Float64()}
			lambda++
		}
		return out
	}
	for len(script) < n {
		switch rng.Intn(10) {
		case 0, 1, 2:
			rawT++
			lambda = 0
			script = append(script, opStep("s", "v",
				timeseries.Point{T: rawT, V: rng.NormFloat64()}, rows(rawT, 1+rng.Intn(3))))
		case 3:
			pts := make([]timeseries.Point, 2+rng.Intn(3))
			var batch []view.Row
			for i := range pts {
				rawT++
				lambda = 0
				pts[i] = timeseries.Point{T: rawT, V: rng.NormFloat64()}
				batch = append(batch, rows(rawT, rng.Intn(3))...)
			}
			script = append(script, opSteps("s", "v", pts, batch))
		case 4, 5:
			rawT++
			script = append(script, opStep("s", "v", timeseries.Point{T: rawT, V: rng.NormFloat64()}, nil))
		case 6:
			if !aux {
				continue
			}
			auxT++
			script = append(script, opStep("aux", "v", timeseries.Point{T: auxT, V: rng.NormFloat64()}, nil))
		case 7:
			script = append(script, opCheckpoint())
		case 8:
			if aux {
				script = append(script, opDrop("aux"))
			} else {
				script = append(script, opCreateRaw("aux", []timeseries.Point{{T: 1, V: 1}}))
				auxT = 1
			}
			aux = !aux
		case 9:
			k := rng.Intn(3)
			lambda = 0
			pre := make([]view.Row, 0, k)
			for i := 0; i < k; i++ {
				pre = append(pre, view.Row{T: int64(i + 1), Lambda: 0, Lo: float64(i), Hi: float64(i) + 1, Prob: 0.5})
			}
			script = append(script, opStoreView("v", pre))
		}
	}
	return script
}

// TestRandomWorkloadCrashRecovery is the property test: for seeded random
// workloads, crash at random filesystem operations under random survival
// modes, recover, and require the recovered catalog — rows, group index,
// query surfaces — byte-identical to the corresponding prefix of the
// uninterrupted run.
func TestRandomWorkloadCrashRecovery(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 3
	}
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			script := randomScript(rng, 25)
			states, total := scriptStates(t, script)
			for trial := 0; trial < trials; trial++ {
				k := 1 + rng.Intn(total)
				mode := crashModes[rng.Intn(len(crashModes))]
				runCrashTrial(t, script, states, k, mode)
			}
		})
	}
}
