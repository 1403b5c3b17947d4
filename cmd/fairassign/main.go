// Command fairassign computes fair (stable) 1-1 assignments between
// preference functions and objects from CSV files, or on generated
// synthetic data.
//
// Object CSV: id,attr1,...,attrD[,capacity]
// Function CSV: id,w1,...,wD[,gamma[,capacity]]  (weights are normalized
// automatically if they do not sum to 1)
//
// Usage:
//
//	fairassign solve -objects o.csv -functions f.csv [-algorithm sb]
//	fairassign demo  [-objects 2000] [-functions 200] [-dims 4] [-kind anti]
//	fairassign gen   -out objects.csv [-n 10000] [-dims 4] [-kind anti]
package main

import (
	"flag"
	"fmt"
	"os"

	"fairassign"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "solve":
		err = cmdSolve(os.Args[2:])
	case "demo":
		err = cmdDemo(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fairassign: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  fairassign solve -objects o.csv -functions f.csv [-algorithm sb|bruteforce|chain|sbalt|twoskylines] [-max 0]
  fairassign demo  [-objects 2000] [-functions 200] [-dims 4] [-kind independent|correlated|anti] [-algorithm sb]
  fairassign gen   -out data.csv [-n 10000] [-dims 4] [-kind anti] [-seed 1]`)
}

func cmdSolve(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ExitOnError)
	objPath := fs.String("objects", "", "object CSV path (id,attr1..attrD[,capacity])")
	funcPath := fs.String("functions", "", "function CSV path (id,w1..wD[,gamma[,capacity]])")
	alg := fs.String("algorithm", "sb", "algorithm: sb, bruteforce, chain, sbalt, twoskylines")
	maxPrint := fs.Int("max", 20, "max pairs to print (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *objPath == "" || *funcPath == "" {
		return fmt.Errorf("both -objects and -functions are required")
	}
	objects, err := fairassign.LoadObjectsCSV(*objPath)
	if err != nil {
		return err
	}
	functions, err := fairassign.LoadFunctionsCSV(*funcPath)
	if err != nil {
		return err
	}
	solver, err := fairassign.NewSolver(objects, functions, fairassign.Options{Algorithm: fairassign.Algorithm(*alg)})
	if err != nil {
		return err
	}
	result, err := solver.Solve()
	if err != nil {
		return err
	}
	printResult(result, *maxPrint)
	return nil
}

func cmdDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	nObj := fs.Int("objects", 2000, "number of objects")
	nFunc := fs.Int("functions", 200, "number of preference functions")
	dims := fs.Int("dims", 4, "dimensionality")
	kind := fs.String("kind", "anti", "object distribution: independent, correlated, anti")
	alg := fs.String("algorithm", "sb", "algorithm")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	objects := fairassign.GenerateObjects(fairassign.Distribution(*kind), *nObj, *dims, *seed)
	functions := fairassign.GenerateFunctions(*nFunc, *dims, *seed+1)
	solver, err := fairassign.NewSolver(objects, functions, fairassign.Options{Algorithm: fairassign.Algorithm(*alg)})
	if err != nil {
		return err
	}
	result, err := solver.Solve()
	if err != nil {
		return err
	}
	printResult(result, 10)
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "", "output CSV path")
	n := fs.Int("n", 10000, "number of objects")
	dims := fs.Int("dims", 4, "dimensionality")
	kind := fs.String("kind", "anti", "distribution: independent, correlated, anti, zillow, nba")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	objects := fairassign.GenerateObjects(fairassign.Distribution(*kind), *n, *dims, *seed)
	if err := fairassign.SaveObjectsCSV(*out, objects); err != nil {
		return err
	}
	fmt.Printf("wrote %d objects to %s\n", len(objects), *out)
	return nil
}

func printResult(r *fairassign.Result, maxPrint int) {
	fmt.Printf("stable pairs: %d\n", len(r.Pairs))
	fmt.Printf("I/O accesses: %d, CPU: %v, peak search memory: %.1f KB, loops: %d\n",
		r.Stats.IOAccesses, r.Stats.CPUTime, float64(r.Stats.PeakMemoryBytes)/1024, r.Stats.Loops)
	n := len(r.Pairs)
	if maxPrint > 0 && n > maxPrint {
		n = maxPrint
	}
	for _, pr := range r.Pairs[:n] {
		fmt.Printf("  f%-8d -> o%-8d score %.6f\n", pr.FunctionID, pr.ObjectID, pr.Score)
	}
	if n < len(r.Pairs) {
		fmt.Printf("  ... %d more\n", len(r.Pairs)-n)
	}
}
