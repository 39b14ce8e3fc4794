package lint

import (
	"go/ast"
	"go/types"
)

// wallclockForbidden lists the package-level time functions that read (or
// schedule against) the machine's wall clock. Durations, constants, and
// constructors from components (time.Unix, time.Date) stay legal: lengths
// of virtual time are fine, readings of real time are not.
var wallclockForbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Wallclock forbids wall-clock reads in simulation code. All latency in
// this repo is virtual (simclock): a single time.Now() in a hot path
// silently breaks the bit-identical-at-any-parallelism invariant. The
// sanctioned sites — wall-clock profiling of the scale campaign, test
// watchdogs — carry //sdm:allow wallclock <reason>.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid time.Now/Since/Until/Sleep/After/Tick/NewTimer/NewTicker in simulation packages",
	Run:  runWallclock,
}

func runWallclock(pass *Pass) {
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || !wallclockForbidden[id.Name] || pass.Pkg.Info == nil {
				return true
			}
			// Resolving the identifier (rather than matching "time.X"
			// textually) covers aliased and dot imports, and value
			// references like `f := time.Now`, while leaving methods
			// (time.Time.After, time.Time.Sub) alone.
			fn, ok := pass.Pkg.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // a method named After/Sub/... , not the package function
			}
			pass.Reportf(id.Pos(), "time.%s reads the wall clock; simulation time must come from simclock (annotate sanctioned profiling/watchdog sites with //sdm:allow wallclock <reason>)", fn.Name())
			return true
		})
	}
}
