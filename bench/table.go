package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// accounting is the final bill a drained server prints, as parsed from
// its stdout.
type accounting struct {
	// raw is the block from "Final accounting:" through the "total:" line,
	// byte for byte — what two lives of one log must agree on.
	raw  []byte
	rows []tableRow
	// totalUSD is the dollar figure of "total: $… net".
	totalUSD   float64
	makespanH  float64
	rebalances int
	// jobs and policy are what the block's header line announces.
	jobs   int
	policy string
}

type tableRow struct {
	id    int
	state string
}

var (
	headerRE = regexp.MustCompile(`^Final accounting: (\d+) jobs, policy (\S+)$`)
	totalRE  = regexp.MustCompile(`^total: \$(-?[0-9.]+) net \(makespan ([0-9.]+)h, (\d+) rebalances, ([0-9.]+) free hrs\)$`)
)

// parseAccounting finds and parses the final accounting in a server's
// stdout. Rows are "id name state wait run cost work deadline", split on
// blanks: the name column never holds a blank in this benchmark
// (generated jobs are unnamed, so the server calls them job-<id>).
func parseAccounting(stdout []byte) (*accounting, error) {
	start := bytes.Index(stdout, []byte("Final accounting: "))
	if start < 0 {
		return nil, fmt.Errorf("no \"Final accounting:\" block in the server's output (%d bytes)", len(stdout))
	}
	acc := &accounting{}
	lines := strings.Split(string(stdout[start:]), "\n")
	end := start
	sawTotal := false
	for i, ln := range lines {
		end += len(ln) + 1
		switch {
		case i == 0:
			m := headerRE.FindStringSubmatch(ln)
			if m == nil {
				return nil, fmt.Errorf("bad accounting header %q", ln)
			}
			acc.jobs, _ = strconv.Atoi(m[1])
			acc.policy = m[2]
		case ln == "" || strings.HasPrefix(ln, "id "):
		case strings.HasPrefix(ln, "total: "):
			m := totalRE.FindStringSubmatch(ln)
			if m == nil {
				return nil, fmt.Errorf("bad total line %q", ln)
			}
			var err error
			if acc.totalUSD, err = strconv.ParseFloat(m[1], 64); err != nil {
				return nil, fmt.Errorf("total line %q: %w", ln, err)
			}
			acc.makespanH, _ = strconv.ParseFloat(m[2], 64)
			acc.rebalances, _ = strconv.Atoi(m[3])
			sawTotal = true
		default:
			f := strings.Fields(ln)
			if len(f) != 8 {
				return nil, fmt.Errorf("accounting row %q has %d columns, want 8", ln, len(f))
			}
			id, err := strconv.Atoi(f[0])
			if err != nil {
				return nil, fmt.Errorf("accounting row %q: bad id", ln)
			}
			acc.rows = append(acc.rows, tableRow{id: id, state: f[2]})
		}
		if sawTotal {
			break
		}
	}
	if !sawTotal {
		return nil, fmt.Errorf("accounting block has no \"total:\" line")
	}
	if end > len(stdout) {
		end = len(stdout)
	}
	acc.raw = stdout[start:end]
	if len(acc.rows) != acc.jobs {
		return nil, fmt.Errorf("accounting header says %d jobs, table has %d rows", acc.jobs, len(acc.rows))
	}
	return acc, nil
}

// nonTerminal counts rows whose job neither finished nor expired.
func (a *accounting) nonTerminal() int {
	n := 0
	for _, r := range a.rows {
		if r.state != "done" && r.state != "expired" {
			n++
		}
	}
	return n
}

// diffAccounting returns "" when two bills are byte-identical, else a
// report of the first few rows that differ.
func diffAccounting(a, b *accounting) string {
	if bytes.Equal(a.raw, b.raw) {
		return ""
	}
	la := strings.Split(string(a.raw), "\n")
	lb := strings.Split(string(b.raw), "\n")
	var sb strings.Builder
	shown := 0
	for i := 0; i < len(la) || i < len(lb); i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x == y {
			continue
		}
		if shown++; shown > 5 {
			continue
		}
		fmt.Fprintf(&sb, "  - %s\n  + %s\n", x, y)
	}
	fmt.Fprintf(&sb, "  (%d differing lines)", shown)
	return sb.String()
}
