package pig

import (
	"testing"

	"slider/internal/mapreduce"
	"slider/internal/memo"
	"slider/internal/sliderrt"
	"slider/internal/workload"
)

func TestLexer(t *testing.T) {
	toks, err := lex("a = LOAD 'x' AS (f1, f2); -- comment\nb = FILTER a BY f1 >= 3.5;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	if toks[2].kind != tokIdent || toks[2].text != "LOAD" {
		t.Fatalf("token 2 = %+v", toks[2])
	}
	if toks[3].kind != tokString || toks[3].text != "x" {
		t.Fatalf("token 3 = %+v", toks[3])
	}
	if kinds[len(kinds)-1] != tokEOF {
		t.Fatal("missing EOF")
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("a = 'unterminated"); err == nil {
		t.Fatal("unterminated string accepted")
	}
	if _, err := lex("a = @"); err == nil {
		t.Fatal("bad character accepted")
	}
}

const testScript = `
raw = LOAD 'events' AS (user, action, page, timespent, revenue);
views = FILTER raw BY action == 'view' AND timespent > 10;
grouped = GROUP views BY user;
counts = FOREACH grouped GENERATE group AS user, COUNT(*) AS views, SUM(timespent) AS total;
ordered = ORDER counts BY total DESC;
top = LIMIT ordered 5;
STORE top INTO 'out';
`

func TestParseChain(t *testing.T) {
	script, err := Parse(testScript)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := script.Chain()
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 7 {
		t.Fatalf("chain has %d statements, want 7", len(chain))
	}
	if _, ok := chain[0].(*LoadStmt); !ok {
		t.Fatalf("chain[0] = %T, want LOAD", chain[0])
	}
	if _, ok := chain[6].(*StoreStmt); !ok {
		t.Fatalf("chain[6] = %T, want STORE", chain[6])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"a = LOAD 'x' AS (f);", // no STORE
		"STORE a INTO 'o';",    // no LOAD
		"a = LOAD 'x' AS (f); b = FROB a; STORE b INTO 'o';",            // unknown op
		"a = LOAD 'x' AS (f); STORE z INTO 'o';",                        // unknown relation
		"a = LOAD 'x' AS (f); b = FILTER a BY f = 3; STORE b INTO 'o';", // = vs ==
	}
	for _, src := range bad {
		script, err := Parse(src)
		if err != nil {
			continue
		}
		if _, err := script.Chain(); err == nil {
			if _, err := Compile(script, nil, 2); err == nil {
				t.Fatalf("bad script accepted: %q", src)
			}
		}
	}
}

func TestExprEval(t *testing.T) {
	schema := Schema{"a", "b", "s"}
	row := Row{2.0, 3.0, "xy"}
	cases := []struct {
		src  string
		want Value
	}{
		{"a + b * 2", 8.0},
		{"(a + b) * 2", 10.0},
		{"a < b", true},
		{"a >= b", false},
		{"s == 'xy'", true},
		{"s != 'xy'", false},
		{"NOT (a == 2)", false},
		{"a == 2 AND b == 3", true},
		{"a == 9 OR b == 3", true},
		{"b - a", 1.0},
		{"b / a", 1.5},
	}
	for _, c := range cases {
		p := &parser{}
		toks, err := lex(c.src)
		if err != nil {
			t.Fatal(err)
		}
		p.toks = toks
		expr, err := p.orExpr()
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		got, err := expr.Eval(schema, row)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if got != c.want {
			t.Fatalf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestExprErrors(t *testing.T) {
	schema := Schema{"a"}
	row := Row{1.0}
	for _, src := range []string{"zzz == 1", "a / 0", "'x' + 1", "NOT a"} {
		toks, err := lex(src)
		if err != nil {
			t.Fatal(err)
		}
		p := &parser{toks: toks}
		expr, err := p.orExpr()
		if err != nil {
			continue
		}
		if _, err := expr.Eval(schema, row); err == nil {
			t.Fatalf("expression %q evaluated without error", src)
		}
	}
}

func compileTest(t *testing.T, src string, tables map[string]*Table) *Plan {
	t.Helper()
	script, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(script, tables, 2)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestCompileStages(t *testing.T) {
	plan := compileTest(t, testScript, nil)
	if len(plan.Stages) != 2 {
		t.Fatalf("plan has %d stages, want 2 (group, order)", len(plan.Stages))
	}
	if plan.Stages[1].Job.Partitions != 1 {
		t.Fatal("ORDER stage must have a single reducer")
	}
	if plan.Output != "out" {
		t.Fatalf("output = %q", plan.Output)
	}
}

func rowsToSplit(id string, rows []Row) mapreduce.Split {
	records := make([]mapreduce.Record, len(rows))
	for i, r := range rows {
		records[i] = r
	}
	return mapreduce.Split{ID: id, Records: records}
}

func TestScratchGroupOrder(t *testing.T) {
	plan := compileTest(t, testScript, nil)
	rows := []Row{
		{"u1", "view", "p1", 20.0, 0.0},
		{"u1", "view", "p2", 30.0, 0.0},
		{"u2", "view", "p1", 100.0, 0.0},
		{"u1", "click", "p1", 999.0, 0.0}, // filtered: not a view
		{"u2", "view", "p3", 5.0, 0.0},    // filtered: timespent <= 10
	}
	got, schema, err := RunScratch(plan, []mapreduce.Split{rowsToSplit("s0", rows)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(schema) != 3 || schema[0] != "user" || schema[2] != "total" {
		t.Fatalf("schema = %v", schema)
	}
	if len(got) != 2 {
		t.Fatalf("got %d rows, want 2", len(got))
	}
	// u2 total=100 ranks above u1 total=50 (DESC).
	if got[0][0] != "u2" || got[0][1].(float64) != 1 || got[0][2].(float64) != 100 {
		t.Fatalf("row 0 = %v", got[0])
	}
	if got[1][0] != "u1" || got[1][1].(float64) != 2 || got[1][2].(float64) != 50 {
		t.Fatalf("row 1 = %v", got[1])
	}
}

func TestScratchJoinDistinct(t *testing.T) {
	src := `
raw = LOAD 'events' AS (user, action);
joined = JOIN raw BY user, 'users' BY user;
pairs = FOREACH joined GENERATE region, action;
uniq = DISTINCT pairs;
grouped = GROUP uniq BY region;
out = FOREACH grouped GENERATE group AS region, COUNT(*) AS combos;
ordered = ORDER out BY region;
STORE ordered INTO 'x';
`
	tables := map[string]*Table{
		"users": {
			Schema: Schema{"user", "region"},
			Rows:   []Row{{"u1", "eu"}, {"u2", "na"}},
		},
	}
	plan := compileTest(t, src, tables)
	if len(plan.Stages) != 3 {
		t.Fatalf("plan has %d stages, want 3 (distinct, group, order)", len(plan.Stages))
	}
	rows := []Row{
		{"u1", "view"}, {"u1", "view"}, {"u1", "click"},
		{"u2", "view"}, {"u3", "view"}, // u3 has no region: dropped by join
	}
	got, _, err := RunScratch(plan, []mapreduce.Split{rowsToSplit("s0", rows)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d rows, want 2: %v", len(got), got)
	}
	// eu has {view, click} = 2 combos; na has {view} = 1.
	if got[0][0] != "eu" || got[0][1].(float64) != 2 {
		t.Fatalf("row 0 = %v", got[0])
	}
	if got[1][0] != "na" || got[1][1].(float64) != 1 {
		t.Fatalf("row 1 = %v", got[1])
	}
}

func TestChainRejectsSelfReference(t *testing.T) {
	// Fuzzing regression: a relation defined in terms of itself must be
	// rejected, not loop forever.
	script, err := Parse("a = LOAD 'x' AS (f); b = FILTER b BY f == 1; STORE b INTO 'o';")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := script.Chain(); err == nil {
		t.Fatal("self-referential relation accepted")
	}
}

func TestCompileRejectsBareGroup(t *testing.T) {
	src := "a = LOAD 'x' AS (f); g = GROUP a BY f; STORE g INTO 'o';"
	script, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(script, nil, 2); err == nil {
		t.Fatal("GROUP without aggregating FOREACH accepted")
	}
}

func TestCompileRejectsMapOnly(t *testing.T) {
	src := "a = LOAD 'x' AS (f); b = FILTER a BY f == 1; STORE b INTO 'o';"
	script, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(script, nil, 2); err == nil {
		t.Fatal("zero-stage script accepted")
	}
}

func sameRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if encodeRow(a[i]) != encodeRow(b[i]) {
			return false
		}
	}
	return true
}

func pipelineMemo() memo.Config {
	cfg := memo.DefaultConfig()
	cfg.Nodes = 4
	return cfg
}

// checkPlanJobs runs mapreduce.CheckJob over every stage's generated job,
// feeding each later stage the pseudo-splits the stage before it produces
// over the window (as RunScratch does).
func checkPlanJobs(t *testing.T, plan *Plan, window []mapreduce.Split) {
	t.Helper()
	splits := window
	for i, st := range plan.Stages {
		if err := mapreduce.CheckJob(st.Job, splits); err != nil {
			t.Fatalf("stage %d (%s): %v", i, st.Job.Name, err)
		}
		out, err := mapreduce.RunScratch(st.Job, splits, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := st.Finalize(out)
		if err != nil {
			t.Fatal(err)
		}
		splits = splits[:0:0]
		for _, in := range pseudoSplits(rows, 8) {
			splits = append(splits, in.split())
		}
	}
}

func TestPipelineIncrementalMatchesScratch(t *testing.T) {
	gen := workload.NewPigMix(workload.PigMixConfig{Seed: 9, Users: 60, Pages: 30, RowsPerSplit: 50})
	tblSchema, tblRows := gen.UserTable()
	table := &Table{Schema: tblSchema}
	for _, r := range tblRows {
		table.Rows = append(table.Rows, Row(r))
	}
	src := `
raw = LOAD 'events' AS (user, action, page, timespent, revenue);
views = FILTER raw BY action == 'view';
joined = JOIN views BY user, 'users' BY user;
grouped = GROUP joined BY region;
agg = FOREACH grouped GENERATE group AS region, COUNT(*) AS views, SUM(timespent) AS total, AVG(timespent) AS mean;
ordered = ORDER agg BY total DESC;
STORE ordered INTO 'o';
`
	plan := compileTest(t, src, map[string]*Table{"users": table})
	checkPlanJobs(t, plan, gen.Range(0, 8))

	for _, mode := range []sliderrt.Mode{sliderrt.Append, sliderrt.Fixed, sliderrt.Variable} {
		cfg := sliderrt.Config{Mode: mode, Memo: pipelineMemo()}
		if mode == sliderrt.Fixed {
			cfg.BucketSplits = 2
			cfg.WindowBuckets = 4
		}
		pl, err := NewPipeline(plan, PipelineConfig{Config: cfg})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		window := gen.Range(0, 8)
		res, err := pl.Initial(window)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		want, _, err := RunScratch(plan, window, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(res.Rows, want) {
			t.Fatalf("%v: initial rows mismatch", mode)
		}

		slides := []struct{ drop, add int }{{2, 2}, {2, 2}}
		if mode == sliderrt.Append {
			slides = []struct{ drop, add int }{{0, 2}, {0, 3}}
		}
		if mode == sliderrt.Variable {
			slides = []struct{ drop, add int }{{3, 1}, {0, 4}}
		}
		next := 8
		for _, s := range slides {
			add := gen.Range(next, next+s.add)
			next += s.add
			res, err := pl.Advance(s.drop, add)
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			window = append(window[s.drop:], add...)
			want, _, err := RunScratch(plan, window, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(res.Rows, want) {
				t.Fatalf("%v: incremental rows mismatch after slide", mode)
			}
		}
	}
}

func TestPipelineReusesLaterStages(t *testing.T) {
	gen := workload.NewPigMix(workload.PigMixConfig{Seed: 3, Users: 40, Pages: 20, RowsPerSplit: 40})
	src := `
raw = LOAD 'events' AS (user, action, page, timespent, revenue);
grouped = GROUP raw BY page;
agg = FOREACH grouped GENERATE group AS page, COUNT(*) AS hits;
popular = FILTER agg BY hits > 1;
g2 = GROUP popular BY page;
agg2 = FOREACH g2 GENERATE group AS page, SUM(hits) AS total;
ordered = ORDER agg2 BY page;
STORE ordered INTO 'o';
`
	plan := compileTest(t, src, nil)
	if len(plan.Stages) != 3 {
		t.Fatalf("stages = %d, want 3", len(plan.Stages))
	}
	pl, err := NewPipeline(plan, PipelineConfig{Config: sliderrt.Config{Mode: sliderrt.Variable, Memo: pipelineMemo()}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Initial(gen.Range(0, 8)); err != nil {
		t.Fatal(err)
	}
	res, err := pl.Advance(1, gen.Range(8, 9))
	if err != nil {
		t.Fatal(err)
	}
	// Later stages must reuse some pseudo-split map work via
	// fingerprint memoization.
	var reused int64
	for _, sr := range res.StageReports[1:] {
		reused += sr.Counters.MapTasksReused
	}
	if reused == 0 {
		t.Fatal("no later-stage map tasks reused after a small slide")
	}
}

func TestPseudoSplitsStable(t *testing.T) {
	rows := []Row{{"a", 1.0}, {"b", 2.0}, {"c", 3.0}}
	a := pseudoSplits(rows, 4)
	b := pseudoSplits([]Row{rows[2], rows[0], rows[1]}, 4) // order shuffled
	for i := range a {
		if a[i].fp != b[i].fp {
			t.Fatalf("pseudo-split %d fingerprint depends on row order", i)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse(testScript); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompile(b *testing.B) {
	script, err := Parse(testScript)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(script, nil, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineAdvance(b *testing.B) {
	gen := workload.NewPigMix(workload.PigMixConfig{Seed: 1, Users: 100, Pages: 40, RowsPerSplit: 100})
	plan := func() *Plan {
		script, err := Parse(testScript)
		if err != nil {
			b.Fatal(err)
		}
		p, err := Compile(script, nil, 4)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}()
	pl, err := NewPipeline(plan, PipelineConfig{Config: sliderrt.Config{Mode: sliderrt.Variable, Memo: pipelineMemo()}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pl.Initial(gen.Range(0, 16)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Advance(1, gen.Range(16+i, 17+i)); err != nil {
			b.Fatal(err)
		}
	}
}
