package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// spread reruns one workload k times, each in a fresh process with the
// next seed, and prints every end-to-end metric's median, quartiles and
// interquartile range as a share of the median — the spread a metric's
// bound must exceed.
func spread(args []string) error {
	fs := flag.NewFlagSet("perfbench spread", flag.ContinueOnError)
	name := fs.String("workload", "fig7-serial", "workload to rerun")
	runs := fs.Int("runs", 10, "number of runs")
	seed := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.String("seconds", "35", "--seconds passed to every run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 2 {
		return fmt.Errorf("need at least 2 runs for quartiles, got %d", *runs)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failedShare []string
	for i := 0; i < *runs; i++ {
		s := *seed + int64(i)
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", *seconds, "--trace", "0")
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, nil
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return fmt.Errorf("run with seed %d: result line: %w", s, err)
		}
		if !rep.Correct {
			return fmt.Errorf("run with seed %d reported incorrect output", s)
		}
		failedShare = append(failedShare, fmt.Sprintf("%d/%d", rep.Failed, rep.Attempted))
		fmt.Fprintf(os.Stderr, "seed %d: %s\n", s, lines[len(lines)-1])
		for k, v := range rep.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d runs, seeds %d..%d, failed/attempted %s\n", *name, *runs, *seed, *seed+int64(*runs)-1, strings.Join(failedShare, " "))
	fmt.Printf("%-26s %-6s %14s %14s %14s %9s\n", "metric", "unit", "q1", "median", "q3", "iqr/med")
	for _, k := range names {
		q, _ := quartiles(values[k])
		rel := 0.0
		if q[1] != 0 {
			rel = (q[2] - q[0]) / q[1]
		}
		fmt.Printf("%-26s %-6s %14.6g %14.6g %14.6g %8.2f%%\n", k, units[k], q[0], q[1], q[2], 100*rel)
	}
	return nil
}
