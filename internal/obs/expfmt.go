package obs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ScrapedSample is one parsed exposition line.
type ScrapedSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Scrape is a parsed exposition document.
type Scrape struct {
	Samples []ScrapedSample
	// Types maps family name to its declared TYPE.
	Types map[string]string
	// typeLines counts TYPE lines per family (Lint rejects repeats).
	typeLines map[string]int
}

// ParseText is a minimal line-oriented parser for the Prometheus text
// exposition format — enough to validate what WriteTo produces and to
// let tests and smoke checks assert on scraped values without a
// dependency. It accepts HELP/TYPE comments, skips blank lines, and
// rejects anything it cannot parse (that is the point: a daemon emitting
// a malformed line should fail the smoke test).
func ParseText(r io.Reader) (*Scrape, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	out := &Scrape{Types: map[string]string{}, typeLines: map[string]int{}}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 3 && fields[1] == "TYPE" {
				if len(fields) < 4 {
					return nil, fmt.Errorf("obs: line %d: TYPE without a kind", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("obs: line %d: unknown TYPE %q", lineNo, fields[3])
				}
				out.Types[fields[2]] = fields[3]
				out.typeLines[fields[2]]++
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		out.Samples = append(out.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSampleLine(line string) (ScrapedSample, error) {
	s := ScrapedSample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value: %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if s.Name == "" || !isMetricName(s.Name) {
		return s, fmt.Errorf("bad metric name in %q", line)
	}
	if strings.HasPrefix(rest, "{") {
		end := -1
		inQuote := false
		esc := false
		for i := 1; i < len(rest); i++ {
			c := rest[i]
			switch {
			case esc:
				esc = false
			case inQuote && c == '\\':
				esc = true
			case c == '"':
				inQuote = !inQuote
			case !inQuote && c == '}':
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set: %q", line)
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	// An integer timestamp may follow the value; we only need the value,
	// but anything else trailing is malformed.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		ts := strings.TrimSpace(rest[i+1:])
		if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
			return s, fmt.Errorf("trailing garbage %q", ts)
		}
		rest = rest[:i]
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", rest, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string, into map[string]string) error {
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq <= 0 {
			return fmt.Errorf("bad label in %q", body)
		}
		name := strings.TrimSpace(body[:eq])
		body = body[eq+1:]
		if len(body) == 0 || body[0] != '"' {
			return fmt.Errorf("unquoted label value for %s", name)
		}
		var b strings.Builder
		i := 1
		closed := false
		for i < len(body) {
			c := body[i]
			if c == '\\' && i+1 < len(body) {
				switch body[i+1] {
				case 'n':
					b.WriteByte('\n')
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				default:
					return fmt.Errorf("bad escape \\%c", body[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		if !closed {
			return fmt.Errorf("unterminated label value for %s", name)
		}
		into[name] = b.String()
		body = strings.TrimPrefix(strings.TrimSpace(body[i:]), ",")
		body = strings.TrimSpace(body)
	}
	return nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return inf(1), nil
	case "-Inf":
		return inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

func inf(sign int) float64 {
	v, _ := strconv.ParseFloat("inf", 64)
	if sign < 0 {
		return -v
	}
	return v
}

func isMetricName(s string) bool {
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Value returns the first sample matching name and every given label
// name/value pair, and whether one was found.
func (sc *Scrape) Value(name string, kv ...string) (float64, bool) {
	for _, s := range sc.Samples {
		if s.Name != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(kv); i += 2 {
			if s.Labels[kv[i]] != kv[i+1] {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// Has reports whether any sample of name (or name with a histogram
// suffix) is present.
func (sc *Scrape) Has(name string) bool {
	for _, s := range sc.Samples {
		if s.Name == name || strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(s.Name, "_bucket"), "_sum"), "_count") == name {
			return true
		}
	}
	return false
}

// family returns the family a sample name belongs to: histogram
// suffixes fold into their declared base name.
func (sc *Scrape) family(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(name, suf); base != name && sc.Types[base] == "histogram" {
			return base
		}
	}
	return name
}

// Families returns the sorted distinct family names seen in samples,
// histogram suffixes folded into their base name.
func (sc *Scrape) Families() []string {
	set := map[string]bool{}
	for _, s := range sc.Samples {
		set[sc.family(s.Name)] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lint checks the naming and labelling rules every ProvLight exposition
// follows, returning one error per violation (nil when clean):
//
//   - every family name starts with "provlight_";
//   - a counter's name ends in "_total", and no other family's does;
//   - every family has exactly one TYPE line;
//   - all samples of a family carry the same label names ("le" aside).
func (sc *Scrape) Lint() error {
	var errs []error
	labelSets := map[string]string{}
	for _, s := range sc.Samples {
		fam := sc.family(s.Name)
		if _, ok := labelSets[fam]; !ok && sc.typeLines[fam] == 0 {
			errs = append(errs, fmt.Errorf("%s: no TYPE line", fam))
		}
		names := make([]string, 0, len(s.Labels))
		for n := range s.Labels {
			if n != "le" {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		key := strings.Join(names, ",")
		if prev, ok := labelSets[fam]; !ok {
			labelSets[fam] = key
		} else if prev != key {
			errs = append(errs, fmt.Errorf("%s: samples carry label names {%s} and {%s}", fam, prev, key))
			labelSets[fam] = key
		}
	}
	names := make([]string, 0, len(labelSets)+len(sc.Types))
	for fam := range labelSets {
		names = append(names, fam)
	}
	for fam := range sc.Types {
		if _, ok := labelSets[fam]; !ok {
			names = append(names, fam)
		}
	}
	sort.Strings(names)
	for _, fam := range names {
		if !strings.HasPrefix(fam, "provlight_") {
			errs = append(errs, fmt.Errorf("%s: name lacks the provlight_ prefix", fam))
		}
		if n := sc.typeLines[fam]; n > 1 {
			errs = append(errs, fmt.Errorf("%s: %d TYPE lines", fam, n))
		}
		kind, typed := sc.Types[fam]
		total := strings.HasSuffix(fam, "_total")
		switch {
		case !typed:
		case kind == "counter" && !total:
			errs = append(errs, fmt.Errorf("%s: counter name does not end in _total", fam))
		case kind != "counter" && total:
			errs = append(errs, fmt.Errorf("%s: %s name ends in _total", fam, kind))
		}
	}
	return errors.Join(errs...)
}
