// Command tmi3dvet is the repository's determinism and concurrency
// multichecker: it loads and type-checks every package in the module and runs
// the internal/vet analyzer suite (ctxdisc, globalmut, godisc, keycoverage,
// lockorder, maporder, seedpurity, stagedeps, wiresafe). A non-empty report
// exits 1, which is what scripts/check.sh gates CI on.
//
// Usage:
//
//	tmi3dvet ./...            # analyze the whole module (the only scope)
//	tmi3dvet -list            # print the analyzers and what they catch
//	tmi3dvet -c maporder ./...# run a single analyzer
//	tmi3dvet -counts ./...    # append per-analyzer diagnostic counts
//	tmi3dvet -json ./...      # machine-readable diagnostics + manifests
//	tmi3dvet -pkg route ./... # only packages whose import path contains "route"
//
// -json emits one JSON object carrying every diagnostic (file/line/col/
// analyzer/message), the per-stage read-set manifest stagedeps computed from
// the anchored stage bodies — the measured dependency surface the staged
// engine's cache keys must cover — and the per-type wire facts wiresafe
// proved over the flow.WireTypes manifest (codec kind, round-tripping fields,
// audited off-wire fields). The exit status is unchanged: 1 on any
// diagnostic, 0 on a clean module.
//
// -pkg narrows a run for fast iteration on one package; CI always runs
// unfiltered.
//
// Directive syntax, for sites the analyzers cannot prove safe on their own:
//
//	//tmi3dvet:ordered <reason>   on or above a map range (maporder)
//	//tmi3dvet:nonkey <reason>    on a Config field (keycoverage)
//	//tmi3dvet:nonseed <reason>   on a Config field excluded from DeriveSeed
//	//tmi3dvet:global <reason>    on or above a mutable global access (globalmut)
//	//tmi3dvet:stage <name>       above a stage body's first statement (stagedeps)
//	//tmi3dvet:godisc <reason>    on or above a goroutine-discipline finding
//	//tmi3dvet:nonwire <reason>   on a wire-type field audited off the wire (wiresafe)
//	//tmi3dvet:finite <reason>    on a raw float field of a non-finite type's
//	                              wire struct that provably stays finite (wiresafe)
//	//tmi3dvet:ctxdisc <reason>   on or above a cancellation/resource finding
//
// The reason string is mandatory and stale suppressions are diagnostics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"tmi3d/internal/vet"
)

func main() {
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	check := flag.String("c", "", "run only the named analyzer")
	root := flag.String("C", "", "module root (default: ascend from the working directory to go.mod)")
	asJSON := flag.Bool("json", false, "emit diagnostics and the stage/wire manifests as JSON")
	counts := flag.Bool("counts", false, "print per-analyzer diagnostic counts after the report")
	pkgFilter := flag.String("pkg", "", "only analyze packages whose import path contains this substring")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tmi3dvet [-list] [-c analyzer] [-C moduleroot] [-json] [-counts] [-pkg substr] [./...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		names := append([]*vet.Analyzer(nil), vet.All...)
		sort.Slice(names, func(i, j int) bool { return names[i].Name < names[j].Name })
		for _, a := range names {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := vet.All
	if *check != "" {
		analyzers = nil
		for _, a := range vet.All {
			if a.Name == *check {
				analyzers = []*vet.Analyzer{a}
			}
		}
		if analyzers == nil {
			fmt.Fprintf(os.Stderr, "tmi3dvet: unknown analyzer %q\n", *check)
			os.Exit(2)
		}
	}

	dir := *root
	if dir == "" {
		var err error
		dir, err = findModuleRoot()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmi3dvet: %v\n", err)
			os.Exit(2)
		}
	}

	mod, err := vet.Load(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmi3dvet: %v\n", err)
		os.Exit(2)
	}
	res := vet.AnalyzeOpts(mod, vet.Options{Analyzers: analyzers, PkgFilter: *pkgFilter})

	if *asJSON {
		emitJSON(res)
	} else {
		for _, d := range res.Diags {
			fmt.Println(d)
		}
	}
	if *counts {
		printCounts(analyzers, res.Diags)
	}
	if len(res.Diags) > 0 {
		fmt.Fprintf(os.Stderr, "tmi3dvet: %d diagnostic(s) across %d package(s)\n", len(res.Diags), len(mod.Pkgs))
		printPackageSummary(res.Diags)
		os.Exit(1)
	}
}

// jsonDiag is the machine-readable diagnostic shape; positions stay
// root-relative so the output is stable across checkouts.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func emitJSON(res *vet.Result) {
	out := struct {
		Diagnostics []jsonDiag       `json:"diagnostics"`
		Stages      []vet.StageReads `json:"stages"`
		WireTypes   []vet.WireFact   `json:"wiretypes"`
	}{
		Diagnostics: []jsonDiag{},
		Stages:      res.Stages,
		WireTypes:   res.WireTypes,
	}
	if out.Stages == nil {
		out.Stages = []vet.StageReads{}
	}
	if out.WireTypes == nil {
		out.WireTypes = []vet.WireFact{}
	}
	for _, d := range res.Diags {
		out.Diagnostics = append(out.Diagnostics, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Check,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "tmi3dvet: %v\n", err)
		os.Exit(2)
	}
}

// printCounts reports one line per requested analyzer, zeros included, in
// name order — the CI-visible shape of "which checks are actually running".
func printCounts(analyzers []*vet.Analyzer, diags []vet.Diagnostic) {
	byCheck := map[string]int{}
	for _, d := range diags {
		byCheck[d.Check]++
	}
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-12s %d\n", n, byCheck[n])
	}
}

// printPackageSummary breaks the failure total down by directory (package),
// sorted, so a red CI run names the guilty packages deterministically.
func printPackageSummary(diags []vet.Diagnostic) {
	byDir := map[string]int{}
	for _, d := range diags {
		dir := filepath.ToSlash(filepath.Dir(d.Pos.Filename))
		byDir[dir]++
	}
	dirs := make([]string, 0, len(byDir))
	for dir := range byDir {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		fmt.Fprintf(os.Stderr, "  %-28s %d\n", dir, byDir[dir])
	}
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}
