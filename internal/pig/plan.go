package pig

import (
	"fmt"
	"sort"
	"strings"

	"slider/internal/mapreduce"
)

// rowOp is one fused map-side operation (filter, projection, replicated
// join). It returns zero or more output rows for one input row.
type rowOp struct {
	name  string
	out   Schema
	apply func(row Row) ([]Row, error)
}

// Table is a static side relation for replicated joins.
type Table struct {
	// Schema names the table's columns.
	Schema Schema
	// Rows holds the table contents.
	Rows []Row
}

// boundaryKind classifies the operation that ends a stage.
type boundaryKind int

const (
	boundaryGroup boundaryKind = iota + 1
	boundaryDistinct
	boundaryOrder
)

// Stage is one MapReduce job of the compiled pipeline.
type Stage struct {
	// Name describes the stage (e.g. "group(user)").
	Name string
	// Job is the executable MapReduce job: its Map fuses the stage's
	// row operations and emits per the boundary operator.
	Job *mapreduce.Job
	// InSchema and OutSchema describe the stage's row formats.
	InSchema  Schema
	OutSchema Schema
	// OpNames lists the fused map-side operations feeding the stage's
	// boundary operator (for plan display).
	OpNames []string
	// finalize converts the job's output into ordered rows.
	finalize func(out mapreduce.Output) []Row
	// post applies trailing fused row ops to the finalized rows (only
	// the last stage has them).
	post []rowOp
}

// Plan is the compiled pipeline.
type Plan struct {
	// Stages run in order; stage 1 reads the sliding window.
	Stages []*Stage
	// LoadSchema is the schema of the window's input rows.
	LoadSchema Schema
	// Output is the STORE destination name.
	Output string
}

// Compile turns a parsed script into a pipeline of MapReduce stages.
// tables provides the static side relations referenced by JOINs;
// partitions sets each stage's reduce parallelism.
func Compile(script *Script, tables map[string]*Table, partitions int) (*Plan, error) {
	chain, err := script.Chain()
	if err != nil {
		return nil, err
	}
	load, ok := chain[0].(*LoadStmt)
	if !ok {
		return nil, fmt.Errorf("pig: pipeline must start with LOAD")
	}
	plan := &Plan{LoadSchema: Schema(load.Schema)}
	schema := Schema(load.Schema)
	var pending []rowOp

	i := 1
	for i < len(chain) {
		switch st := chain[i].(type) {
		case *FilterStmt:
			op, err := makeFilterOp(st, schema)
			if err != nil {
				return nil, err
			}
			pending = append(pending, op)
			i++
		case *ForeachStmt:
			if hasAggregates(st) {
				return nil, fmt.Errorf("pig: FOREACH with aggregates must directly follow GROUP (relation %q)", st.Alias)
			}
			op, err := makeProjectOp(st, schema)
			if err != nil {
				return nil, err
			}
			schema = op.out
			pending = append(pending, op)
			i++
		case *SampleStmt:
			op := makeSampleOp(st, schema)
			pending = append(pending, op)
			i++
		case *JoinStmt:
			table, ok := tables[st.Table]
			if !ok {
				return nil, fmt.Errorf("pig: unknown join table %q", st.Table)
			}
			op, err := makeJoinOp(st, schema, table)
			if err != nil {
				return nil, err
			}
			schema = op.out
			pending = append(pending, op)
			i++
		case *GroupStmt:
			// GROUP must be followed by an aggregating FOREACH.
			if i+1 >= len(chain) {
				return nil, fmt.Errorf("pig: GROUP %q must be followed by FOREACH", st.Alias)
			}
			fe, ok := chain[i+1].(*ForeachStmt)
			if !ok || !hasAggregates(fe) {
				return nil, fmt.Errorf("pig: GROUP %q must be followed by an aggregating FOREACH", st.Alias)
			}
			stage, outSchema, err := makeGroupStage(st, fe, schema, pending, partitions)
			if err != nil {
				return nil, err
			}
			plan.Stages = append(plan.Stages, stage)
			schema = outSchema
			pending = nil
			i += 2
		case *DistinctStmt:
			stage := makeDistinctStage(st, schema, pending, partitions)
			plan.Stages = append(plan.Stages, stage)
			pending = nil
			i++
		case *OrderStmt:
			limit := 0
			skip := 1
			if i+1 < len(chain) {
				if ls, ok := chain[i+1].(*LimitStmt); ok {
					limit = ls.N
					skip = 2
				}
			}
			stage, err := makeOrderStage(st, schema, pending, limit)
			if err != nil {
				return nil, err
			}
			plan.Stages = append(plan.Stages, stage)
			pending = nil
			i += skip
		case *LimitStmt:
			return nil, fmt.Errorf("pig: LIMIT is only supported directly after ORDER (relation %q)", st.Alias)
		case *StoreStmt:
			plan.Output = st.Output
			i++
		default:
			return nil, fmt.Errorf("pig: unsupported statement %T", st)
		}
	}
	if len(plan.Stages) == 0 {
		return nil, fmt.Errorf("pig: script compiles to zero MapReduce stages; add a GROUP, DISTINCT, or ORDER")
	}
	if len(pending) > 0 {
		last := plan.Stages[len(plan.Stages)-1]
		last.post = pending
		last.OutSchema = pending[len(pending)-1].out
		for _, op := range pending {
			last.OpNames = append(last.OpNames, "post:"+op.name)
		}
	}
	return plan, nil
}

// Describe renders the compiled pipeline: one line per MapReduce stage
// with its fused map-side operations and output schema (Pig's EXPLAIN).
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline of %d MapReduce stage(s), input %v:\n", len(p.Stages), p.LoadSchema)
	for i, st := range p.Stages {
		fmt.Fprintf(&b, "  stage %d: %s", i+1, st.Name)
		if len(st.OpNames) > 0 {
			fmt.Fprintf(&b, " [%s]", strings.Join(st.OpNames, " → "))
		}
		fmt.Fprintf(&b, " → %v\n", st.OutSchema)
	}
	fmt.Fprintf(&b, "  store into %q\n", p.Output)
	return b.String()
}

// hasAggregates reports whether a FOREACH contains aggregate columns.
func hasAggregates(st *ForeachStmt) bool {
	for _, g := range st.Gens {
		if g.Agg != "" {
			return true
		}
	}
	return false
}

// makeFilterOp builds a fused FILTER.
func makeFilterOp(st *FilterStmt, schema Schema) (rowOp, error) {
	s := schema
	cond := st.Cond
	return rowOp{
		name: "filter",
		out:  s,
		apply: func(row Row) ([]Row, error) {
			v, err := cond.Eval(s, row)
			if err != nil {
				return nil, err
			}
			keep, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("pig: FILTER condition is not boolean")
			}
			if keep {
				return []Row{row}, nil
			}
			return nil, nil
		},
	}, nil
}

// makeProjectOp builds a fused projection FOREACH.
func makeProjectOp(st *ForeachStmt, schema Schema) (rowOp, error) {
	s := schema
	out := make(Schema, len(st.Gens))
	for i, g := range st.Gens {
		out[i] = g.Name
	}
	gens := st.Gens
	return rowOp{
		name: "foreach",
		out:  out,
		apply: func(row Row) ([]Row, error) {
			projected := make(Row, len(gens))
			for i, g := range gens {
				v, err := g.Expr.Eval(s, row)
				if err != nil {
					return nil, err
				}
				projected[i] = v
			}
			return []Row{projected}, nil
		},
	}, nil
}

// makeSampleOp builds a fused deterministic sampler: a row is kept iff
// its content hash falls below the fraction, so the same row is always
// sampled the same way — a requirement for incremental consistency.
func makeSampleOp(st *SampleStmt, schema Schema) rowOp {
	inSchema := schema
	threshold := uint64(st.Fraction * float64(1<<32))
	return rowOp{
		name: "sample",
		out:  inSchema,
		apply: func(row Row) ([]Row, error) {
			h := fingerprintRow(fnvOffset, row) >> 32
			if h < threshold {
				return []Row{row}, nil
			}
			return nil, nil
		},
	}
}

// makeJoinOp builds a fused replicated join.
func makeJoinOp(st *JoinStmt, schema Schema, table *Table) (rowOp, error) {
	srcIdx := schema.Index(st.SrcKey)
	if srcIdx < 0 {
		return rowOp{}, fmt.Errorf("pig: JOIN key %q not in schema %v", st.SrcKey, schema)
	}
	tabIdx := table.Schema.Index(st.TableKey)
	if tabIdx < 0 {
		return rowOp{}, fmt.Errorf("pig: JOIN key %q not in table schema %v", st.TableKey, table.Schema)
	}
	// Build the hash side once.
	index := make(map[string][]Row, len(table.Rows))
	for _, r := range table.Rows {
		k := ToString(r[tabIdx])
		index[k] = append(index[k], r)
	}
	out := make(Schema, 0, len(schema)+len(table.Schema))
	out = append(out, schema...)
	for _, n := range table.Schema {
		if out.Index(n) >= 0 {
			n = st.Table + "_" + n
		}
		out = append(out, n)
	}
	return rowOp{
		name: "join",
		out:  out,
		apply: func(row Row) ([]Row, error) {
			matches := index[ToString(row[srcIdx])]
			if len(matches) == 0 {
				return nil, nil
			}
			rows := make([]Row, 0, len(matches))
			for _, m := range matches {
				joined := make(Row, 0, len(row)+len(m))
				joined = append(joined, row...)
				joined = append(joined, m...)
				rows = append(rows, joined)
			}
			return rows, nil
		},
	}, nil
}

// applyOps threads one row through the fused ops.
func applyOps(ops []rowOp, row Row) ([]Row, error) {
	rows := []Row{row}
	for _, op := range ops {
		var next []Row
		for _, r := range rows {
			outRows, err := op.apply(r)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", op.name, err)
			}
			next = append(next, outRows...)
		}
		rows = next
		if len(rows) == 0 {
			return nil, nil
		}
	}
	return rows, nil
}

// aggSpec is one compiled aggregate column.
type aggSpec struct {
	fn       string
	fieldIdx int // -1 for COUNT(*)
}

// makeGroupStage compiles GROUP + aggregating FOREACH into one MR job.
func makeGroupStage(gs *GroupStmt, fe *ForeachStmt, schema Schema, ops []rowOp, partitions int) (*Stage, Schema, error) {
	inSchema := schema
	if len(ops) > 0 {
		inSchema = ops[len(ops)-1].out
	}
	keyIdx := make([]int, len(gs.Keys))
	for i, k := range gs.Keys {
		keyIdx[i] = inSchema.Index(k)
		if keyIdx[i] < 0 {
			return nil, nil, fmt.Errorf("pig: GROUP key %q not in schema %v", k, inSchema)
		}
	}
	// Output columns: in FOREACH order; `group` refers to the group key.
	var specs []aggSpec
	outSchema := make(Schema, 0, len(fe.Gens))
	type colKind struct {
		isKey  bool
		keyPos int // position within group keys
		agg    int // index into specs
	}
	var cols []colKind
	for _, g := range fe.Gens {
		switch {
		case g.Agg != "":
			idx := -1
			if g.AggField != "" {
				idx = inSchema.Index(g.AggField)
				if idx < 0 {
					return nil, nil, fmt.Errorf("pig: aggregate field %q not in schema %v", g.AggField, inSchema)
				}
			} else if g.Agg != "COUNT" {
				return nil, nil, fmt.Errorf("pig: %s(*) is only valid for COUNT", g.Agg)
			}
			cols = append(cols, colKind{agg: len(specs)})
			specs = append(specs, aggSpec{fn: g.Agg, fieldIdx: idx})
			outSchema = append(outSchema, g.Name)
		default:
			f, ok := g.Expr.(*FieldExpr)
			if !ok {
				return nil, nil, fmt.Errorf("pig: non-aggregate GENERATE column %q after GROUP must be `group` or a key field", g.Name)
			}
			pos := -1
			if f.Name == "group" && len(gs.Keys) == 1 {
				pos = 0
			} else {
				for i, k := range gs.Keys {
					if k == f.Name {
						pos = i
					}
				}
			}
			if pos < 0 {
				return nil, nil, fmt.Errorf("pig: column %q is not a group key", f.Name)
			}
			cols = append(cols, colKind{isKey: true, keyPos: pos})
			outSchema = append(outSchema, g.Name)
		}
	}

	name := "group(" + strings.Join(gs.Keys, ",") + ")"
	job := &mapreduce.Job{
		Name:       name,
		Partitions: partitions,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			row, ok := rec.(Row)
			if !ok {
				return fmt.Errorf("pig: record %T is not a Row", rec)
			}
			rows, err := applyOps(ops, row)
			if err != nil {
				return err
			}
			for _, r := range rows {
				keyVals := make(Row, len(keyIdx))
				keyParts := make([]string, len(keyIdx))
				for i, ki := range keyIdx {
					keyVals[i] = r[ki]
					keyParts[i] = ToString(r[ki])
				}
				val := &AggVal{KeyVals: keyVals, Cells: make([]AggCell, len(specs))}
				for ci, spec := range specs {
					cell := AggCell{Count: 1}
					if spec.fieldIdx >= 0 {
						f, ok := ToNum(r[spec.fieldIdx])
						if !ok {
							return fmt.Errorf("pig: aggregate over non-numeric value %v", r[spec.fieldIdx])
						}
						cell.Sum, cell.Min, cell.Max = f, f, f
					}
					val.Cells[ci] = cell
				}
				emit(strings.Join(keyParts, "\x1f"), val)
			}
			return nil
		},
		Combine: func(_ string, values []mapreduce.Value) mapreduce.Value {
			return mergeAggVals(values)
		},
		Commutative: true,
	}
	finalize := func(out mapreduce.Output) []Row {
		keys := sortedKeys(out)
		rows := make([]Row, 0, len(keys))
		for _, k := range keys {
			acc := out[k].(*AggVal)
			row := make(Row, len(cols))
			for i, c := range cols {
				if c.isKey {
					row[i] = acc.KeyVals[c.keyPos]
					continue
				}
				cell := acc.Cells[c.agg]
				switch specs[c.agg].fn {
				case "COUNT":
					row[i] = float64(cell.Count)
				case "SUM":
					row[i] = cell.Sum
				case "AVG":
					if cell.Count == 0 {
						row[i] = 0.0
					} else {
						row[i] = cell.Sum / float64(cell.Count)
					}
				case "MIN":
					row[i] = cell.Min
				case "MAX":
					row[i] = cell.Max
				}
			}
			rows = append(rows, row)
		}
		return rows
	}
	return &Stage{
		Name:      name,
		Job:       job,
		InSchema:  schema,
		OutSchema: outSchema,
		OpNames:   opNames(ops),
		finalize:  finalize,
	}, outSchema, nil
}

// opNames extracts the fused ops' names for plan display.
func opNames(ops []rowOp) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = op.name
	}
	return out
}

// makeDistinctStage compiles DISTINCT into an MR job.
func makeDistinctStage(st *DistinctStmt, schema Schema, ops []rowOp, partitions int) *Stage {
	inSchema := schema
	if len(ops) > 0 {
		inSchema = ops[len(ops)-1].out
	}
	job := &mapreduce.Job{
		Name:       "distinct",
		Partitions: partitions,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			row, ok := rec.(Row)
			if !ok {
				return fmt.Errorf("pig: record %T is not a Row", rec)
			}
			rows, err := applyOps(ops, row)
			if err != nil {
				return err
			}
			for _, r := range rows {
				emit(encodeRow(r), &RowVal{Row: r})
			}
			return nil
		},
		// Combine keeps the least row by kindOrder (rows that print alike
		// share a key), in a fresh value: a combiner's result shares no
		// pointer with its inputs (mapreduce.ErrAliasesInput).
		Combine: func(_ string, values []mapreduce.Value) mapreduce.Value {
			row := values[0].(*RowVal).Row
			for _, v := range values[1:] {
				if r := v.(*RowVal).Row; kindOrder(r, row) < 0 {
					row = r
				}
			}
			return &RowVal{Row: row}
		},
		Commutative: true,
	}
	finalize := func(out mapreduce.Output) []Row {
		keys := sortedKeys(out)
		rows := make([]Row, 0, len(keys))
		for _, k := range keys {
			rows = append(rows, out[k].(*RowVal).Row)
		}
		return rows
	}
	return &Stage{
		Name:      "distinct",
		Job:       job,
		InSchema:  schema,
		OutSchema: inSchema,
		OpNames:   opNames(ops),
		finalize:  finalize,
	}
}

// makeOrderStage compiles ORDER [+ LIMIT] into a single-reducer MR job.
func makeOrderStage(st *OrderStmt, schema Schema, ops []rowOp, limit int) (*Stage, error) {
	inSchema := schema
	if len(ops) > 0 {
		inSchema = ops[len(ops)-1].out
	}
	keyIdx := inSchema.Index(st.Key)
	if keyIdx < 0 {
		return nil, fmt.Errorf("pig: ORDER key %q not in schema %v", st.Key, inSchema)
	}
	desc := st.Desc
	job := &mapreduce.Job{
		Name:       "order(" + st.Key + ")",
		Partitions: 1,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			row, ok := rec.(Row)
			if !ok {
				return fmt.Errorf("pig: record %T is not a Row", rec)
			}
			rows, err := applyOps(ops, row)
			if err != nil {
				return err
			}
			for _, r := range rows {
				sr := &SortedRows{KeyIdx: keyIdx, Desc: desc, Limit: limit, Rows: []Row{r}}
				emit("__all__", sr)
			}
			return nil
		},
		Combine: func(_ string, values []mapreduce.Value) mapreduce.Value {
			return mergeSortedRows(values)
		},
		Commutative: true,
	}
	finalize := func(out mapreduce.Output) []Row {
		v, ok := out["__all__"]
		if !ok {
			return nil
		}
		return v.(*SortedRows).Rows
	}
	name := "order(" + st.Key + ")"
	if limit > 0 {
		name = fmt.Sprintf("%s+limit(%d)", name, limit)
	}
	return &Stage{
		Name:      name,
		Job:       job,
		InSchema:  schema,
		OutSchema: inSchema,
		OpNames:   opNames(ops),
		finalize:  finalize,
	}, nil
}

// Finalize converts a stage's job output into rows and applies trailing
// fused operations.
func (s *Stage) Finalize(out mapreduce.Output) ([]Row, error) {
	rows := s.finalize(out)
	if len(s.post) == 0 {
		return rows, nil
	}
	var final []Row
	for _, r := range rows {
		outRows, err := applyOps(s.post, r)
		if err != nil {
			return nil, err
		}
		final = append(final, outRows...)
	}
	return final, nil
}

// sortedKeys returns output keys in sorted order for deterministic rows.
func sortedKeys(out mapreduce.Output) []string {
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
