package sim

import (
	"fmt"
	"strings"
)

// FormatRepro renders a shrunken trace as a copy-pasteable Go test. Paste
// the output into any _test.go file under internal/sim (or adjust the
// import path) and the failure reproduces without the generator: the
// trace is spelled out literally, so it survives generator changes.
func FormatRepro(name string, tr Trace, opt Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func Test%s(t *testing.T) {\n", name)
	fmt.Fprintf(&b, "\ttr := sim.Trace{\n")
	fmt.Fprintf(&b, "\t\tKind:    sim.%s,\n", tr.Kind)
	fmt.Fprintf(&b, "\t\tSeed:    %#x,\n", tr.Seed)
	fmt.Fprintf(&b, "\t\tInitial: %d,\n", tr.Initial)
	if len(tr.Ops) == 0 {
		fmt.Fprintf(&b, "\t\tOps:     nil,\n")
	} else {
		fmt.Fprintf(&b, "\t\tOps: []sim.Op{\n")
		for _, op := range tr.Ops {
			fmt.Fprintf(&b, "\t\t\t%s,\n", opLiteral(op))
		}
		fmt.Fprintf(&b, "\t\t},\n")
	}
	fmt.Fprintf(&b, "\t}\n")
	fmt.Fprintf(&b, "\topt := %s\n", optionsLiteral(opt))
	fmt.Fprintf(&b, "\tif err := sim.Run(tr, opt); err != nil {\n")
	fmt.Fprintf(&b, "\t\tt.Fatal(err)\n")
	fmt.Fprintf(&b, "\t}\n")
	fmt.Fprintf(&b, "}\n")
	return b.String()
}

// optionsLiteral renders the options as a Go composite literal. Buggify
// masks are named in core; anything set is rendered numerically with a
// comment since the repro should normally run with injection off.
func optionsLiteral(opt Options) string {
	var fields []string
	if opt.Layer != LayerTree {
		fields = append(fields, fmt.Sprintf("Layer: sim.%s", opt.Layer))
	}
	if len(opt.Pars) > 0 {
		parts := make([]string, len(opt.Pars))
		for i, p := range opt.Pars {
			parts[i] = fmt.Sprintf("%d", p)
		}
		fields = append(fields, fmt.Sprintf("Pars: []int{%s}", strings.Join(parts, ", ")))
	}
	if opt.Buggify != 0 {
		fields = append(fields, fmt.Sprintf("Buggify: %d /* core.Buggify mask used when the failure was found */", opt.Buggify))
	}
	if opt.NoBounds {
		fields = append(fields, "NoBounds: true")
	}
	if opt.Ownership {
		fields = append(fields, "Ownership: true")
	}
	if opt.DistFaults {
		fields = append(fields, "DistFaults: true")
	}
	if len(fields) == 0 {
		return "sim.Options{}"
	}
	return "sim.Options{" + strings.Join(fields, ", ") + "}"
}
