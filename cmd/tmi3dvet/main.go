// Command tmi3dvet is the repository's determinism multichecker: it loads
// and type-checks every package in the module, runs the internal/vet
// analyzer suite (maporder, seedpurity) and prints each diagnostic, then one
// count line per analyzer, zeros included. A non-empty report exits 1, which
// is what scripts/check.sh gates CI on. The other contracts are runtime
// tests in internal/flow: TestWireFormatTotal (the wire contract),
// TestStageBodiesSeeOnlyKeyFields (stage cache keys) and
// TestProcessCachesSurviveFlows (the shared process caches).
//
// Usage:
//
//	tmi3dvet ./...            # analyze the whole module (the only scope)
//	tmi3dvet -list            # print the analyzers and what they catch
//	tmi3dvet -C dir ./...     # analyze the module rooted at dir
//
// Directive syntax, for sites maporder cannot prove safe on its own:
//
//	//tmi3dvet:ordered <reason>   on or above a map range
//
// The reason string is mandatory and stale suppressions are diagnostics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"tmi3d/internal/vet"
)

func main() {
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	root := flag.String("C", "", "module root (default: ascend from the working directory to go.mod)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tmi3dvet [-list] [-C moduleroot] [./...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	byName := append([]*vet.Analyzer(nil), vet.All...)
	sort.Slice(byName, func(i, j int) bool { return byName[i].Name < byName[j].Name })
	if *list {
		for _, a := range byName {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
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
	diags := vet.Run(mod, vet.All)
	for _, d := range diags {
		fmt.Println(d)
	}
	printCounts(byName, diags)
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "tmi3dvet: %d diagnostic(s) across %d package(s)\n", len(diags), len(mod.Pkgs))
		printPackageSummary(diags)
		os.Exit(1)
	}
}

// printCounts reports one line per analyzer, zeros included, in the given
// (name) order — the CI-visible shape of "which checks are actually running".
func printCounts(analyzers []*vet.Analyzer, diags []vet.Diagnostic) {
	byCheck := map[string]int{}
	for _, d := range diags {
		byCheck[d.Check]++
	}
	for _, a := range analyzers {
		fmt.Printf("%-12s %d\n", a.Name, byCheck[a.Name])
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
