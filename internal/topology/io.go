package topology

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"brokerset/internal/graph"
)

// The text format is line-oriented so real datasets (e.g. CAIDA AS links +
// IXP membership dumps) can be converted with a few lines of awk:
//
//	# brokerset-topology v1
//	nodes <n>
//	node <id> <class> <tier> <name...>
//	edge <u> <v> <rel>
//
// Unlabeled nodes default to enterprise tier-3 ASes; unlabeled edges to p2p.

const formatHeader = "# brokerset-topology v1"

// Save writes the topology in the text format.
func (t *Topology) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, formatHeader)
	fmt.Fprintf(bw, "nodes %d\n", t.NumNodes())
	for u := 0; u < t.NumNodes(); u++ {
		fmt.Fprintf(bw, "node %d %s %d %s\n", u, t.Class[u], t.Tier[u], t.Name[u])
	}
	var err error
	t.Graph.Edges(func(u, v int) bool {
		_, err = fmt.Fprintf(bw, "edge %d %d %s\n", u, v, t.Rel(u, v))
		return err == nil
	})
	if err != nil {
		return fmt.Errorf("topology: save: %w", err)
	}
	return bw.Flush()
}

// Load parses a topology from the text format.
func Load(r io.Reader) (*Topology, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	next := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line == "" || (strings.HasPrefix(line, "#") && line != formatHeader) {
				continue
			}
			return line, true
		}
		return "", false
	}

	line, ok := next()
	if !ok || line != formatHeader {
		return nil, fmt.Errorf("topology: line %d: missing header %q", lineNo, formatHeader)
	}
	line, ok = next()
	if !ok {
		return nil, fmt.Errorf("topology: unexpected EOF before nodes line")
	}
	var n int
	if _, err := fmt.Sscanf(line, "nodes %d", &n); err != nil || n < 0 {
		return nil, fmt.Errorf("topology: line %d: bad nodes line %q", lineNo, line)
	}

	t := &Topology{
		Class: make([]Class, n),
		Tier:  make([]uint8, n),
		Name:  make([]string, n),
	}
	for u := 0; u < n; u++ {
		t.Class[u] = ClassEnterprise
		t.Tier[u] = 3
		t.Name[u] = fmt.Sprintf("AS%d", u)
	}

	b := graph.NewBuilder(n)
	for {
		line, ok = next()
		if !ok {
			break
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) < 4 {
				return nil, fmt.Errorf("topology: line %d: short node line %q", lineNo, line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 0 || id >= n {
				return nil, fmt.Errorf("topology: line %d: bad node id %q", lineNo, fields[1])
			}
			c, err := ParseClass(fields[2])
			if err != nil {
				return nil, fmt.Errorf("topology: line %d: %w", lineNo, err)
			}
			tier, err := strconv.Atoi(fields[3])
			if err != nil || tier < 0 || tier > 255 {
				return nil, fmt.Errorf("topology: line %d: bad tier %q", lineNo, fields[3])
			}
			t.Class[id] = c
			t.Tier[id] = uint8(tier)
			if len(fields) > 4 {
				t.Name[id] = strings.Join(fields[4:], " ")
			}
		case "edge":
			if len(fields) < 3 {
				return nil, fmt.Errorf("topology: line %d: short edge line %q", lineNo, line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("topology: line %d: bad edge endpoints %q", lineNo, line)
			}
			rel := RelPeer
			if len(fields) > 3 {
				r, err := ParseRelationship(fields[3])
				if err != nil {
					return nil, fmt.Errorf("topology: line %d: %w", lineNo, err)
				}
				rel = r
			}
			addRel(b, u, v, rel)
		default:
			return nil, fmt.Errorf("topology: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topology: scan: %w", err)
	}
	if err := t.build(b); err != nil {
		return nil, fmt.Errorf("topology: load: %w", err)
	}
	return t, nil
}
