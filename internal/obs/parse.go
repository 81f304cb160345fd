package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file is the scraping side of the exposition format: a strict
// parser for the text produced by WriteText (and by any conforming
// Prometheus exporter). cmd/tapinspect uses it to pretty-print a live
// node, the multi-process integration test uses it to assert
// cross-process conservation invariants, and the nightly compose smoke
// uses it (through tapinspect) to fail on unparseable output.

// Sample is one parsed series value.
type Sample struct {
	Name   string
	Labels map[string]string // nil when unlabeled
	Value  float64
}

// Snapshot is one parsed scrape.
type Snapshot struct {
	Samples []Sample
	Types   map[string]string // family name → counter|gauge|histogram|…
}

// ParseText parses a text-exposition document. It is strict where it
// matters for the format's consumers — metric and label syntax, numeric
// values, HELP/TYPE comment shape — and returns the first malformed
// line as an error.
func ParseText(r io.Reader) (*Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	snap := &Snapshot{Types: make(map[string]string)}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, snap); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		snap.Samples = append(snap.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return snap, nil
}

// parseComment validates a # line: HELP/TYPE carry a metric name (and
// TYPE a known type); other comments pass through.
func parseComment(line string, snap *Snapshot) error {
	fields := strings.Fields(line)
	if len(fields) < 2 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil // free-form comment
	}
	if len(fields) < 3 || !validName(fields[2]) {
		return fmt.Errorf("malformed %s comment %q", fields[1], line)
	}
	if fields[1] == "TYPE" {
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		snap.Types[fields[2]] = fields[3]
	}
	return nil
}

// parseSample decodes `name[{labels}] value [timestamp]`.
func parseSample(line string) (Sample, error) {
	var s Sample
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	s.Name = line[:i]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name in %q", line)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, labels, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	if len(fields) == 2 { // optional millisecond timestamp
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp in %q", line)
		}
	}
	return s, nil
}

// parseValue accepts exposition numbers, including the spelled-out
// infinities and NaN.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	case "NaN":
		return strconv.ParseFloat("NaN", 64)
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels decodes a `{a="b",c="d"}` block starting at s[0] == '{',
// returning the index one past the closing brace.
func parseLabels(s string) (int, map[string]string, error) {
	labels := make(map[string]string)
	i := 1
	for {
		for i < len(s) && (s[i] == ',' || s[i] == ' ') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, labels, nil
		}
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i == len(s) {
			return 0, nil, fmt.Errorf("unterminated label in %q", s)
		}
		name := s[start:i]
		if !validName(name) {
			return 0, nil, fmt.Errorf("invalid label name %q", name)
		}
		i++ // '='
		if i >= len(s) || s[i] != '"' {
			return 0, nil, fmt.Errorf("unquoted label value in %q", s)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, nil, fmt.Errorf("unterminated label value in %q", s)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, nil, fmt.Errorf("dangling escape in %q", s)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, nil, fmt.Errorf("unknown escape \\%c in %q", s[i+1], s)
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels[name] = val.String()
	}
}

// Value returns the sample exactly matching name and the given labels.
func (s *Snapshot) Value(name string, labels ...Label) (float64, bool) {
	for _, smp := range s.Samples {
		if smp.Name != name || len(smp.Labels) != len(labels) {
			continue
		}
		ok := true
		for _, l := range labels {
			if smp.Labels[l.Name] != l.Value {
				ok = false
				break
			}
		}
		if ok {
			return smp.Value, true
		}
	}
	return 0, false
}

// Sum adds every series named exactly name, across label sets. Missing
// names sum to zero — conservation checks treat absence as emptiness.
func (s *Snapshot) Sum(name string) float64 {
	total := 0.0
	for _, smp := range s.Samples {
		if smp.Name == name {
			total += smp.Value
		}
	}
	return total
}
