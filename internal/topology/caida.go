package topology

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"brokerset/internal/graph"
)

// LoadCAIDA builds a Topology from real public datasets:
//
//   - rels: the CAIDA AS-relationships serial-1 format, one edge per line,
//     "<provider-as>|<customer-as>|-1" or "<peer-as>|<peer-as>|0", with
//     '#' comment lines. This is the format of the paper's underlying
//     RouteViews/RIPE-derived snapshots.
//   - members (optional, may be nil): an IXP membership list, one line per
//     membership, "<ixp-name>|<as-number>", '#' comments allowed. Each
//     distinct IXP becomes an independent node (the paper's "IXPs as
//     independent entities" assumption), linked to its member ASes.
//
// AS numbers are arbitrary integers; they are densely renumbered and the
// original number is preserved in the node name ("AS<number>"). Node
// classes are inferred structurally: ASes with customers and no providers
// form the top tier, ASes with customers are transit, the rest enterprise.
func LoadCAIDA(rels io.Reader, members io.Reader) (*Topology, error) {
	type edge struct {
		a, b int64
		rel  Relationship // from a's perspective
	}
	var edges []edge
	asSet := make(map[int64]struct{})

	sc := bufio.NewScanner(rels)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "|")
		if len(fields) < 3 {
			return nil, fmt.Errorf("topology: caida rels line %d: want 'as|as|rel', got %q", lineNo, line)
		}
		a, err1 := strconv.ParseInt(fields[0], 10, 64)
		b, err2 := strconv.ParseInt(fields[1], 10, 64)
		r, err3 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("topology: caida rels line %d: bad numbers in %q", lineNo, line)
		}
		var rel Relationship
		switch r {
		case -1:
			rel = RelProvider // first column is the provider
		case 0:
			rel = RelPeer
		default:
			return nil, fmt.Errorf("topology: caida rels line %d: unknown relationship %d", lineNo, r)
		}
		asSet[a] = struct{}{}
		asSet[b] = struct{}{}
		edges = append(edges, edge{a: a, b: b, rel: rel})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topology: caida rels: %w", err)
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("topology: caida rels: no edges")
	}

	// Memberships.
	type membership struct {
		ixp string
		as  int64
	}
	var mems []membership
	ixpNames := make(map[string]struct{})
	if members != nil {
		msc := bufio.NewScanner(members)
		msc.Buffer(make([]byte, 1024*1024), 1024*1024)
		mLine := 0
		for msc.Scan() {
			mLine++
			line := strings.TrimSpace(msc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			fields := strings.Split(line, "|")
			if len(fields) < 2 {
				return nil, fmt.Errorf("topology: ixp members line %d: want 'ixp|as', got %q", mLine, line)
			}
			name := strings.TrimSpace(fields[0])
			as, err := strconv.ParseInt(strings.TrimSpace(fields[1]), 10, 64)
			if err != nil || name == "" {
				return nil, fmt.Errorf("topology: ixp members line %d: bad entry %q", mLine, line)
			}
			ixpNames[name] = struct{}{}
			asSet[as] = struct{}{}
			mems = append(mems, membership{ixp: name, as: as})
		}
		if err := msc.Err(); err != nil {
			return nil, fmt.Errorf("topology: ixp members: %w", err)
		}
	}

	// Dense renumbering: ASes in ascending AS number, then IXPs by name.
	asNums := make([]int64, 0, len(asSet))
	for a := range asSet {
		asNums = append(asNums, a)
	}
	sort.Slice(asNums, func(i, j int) bool { return asNums[i] < asNums[j] })
	asID := make(map[int64]int, len(asNums))
	for i, a := range asNums {
		asID[a] = i
	}
	ixpList := make([]string, 0, len(ixpNames))
	for name := range ixpNames {
		ixpList = append(ixpList, name)
	}
	sort.Strings(ixpList)
	ixpID := make(map[string]int, len(ixpList))
	for i, name := range ixpList {
		ixpID[name] = len(asNums) + i
	}

	n := len(asNums) + len(ixpList)
	t := &Topology{
		Class: make([]Class, n),
		Tier:  make([]uint8, n),
		Name:  make([]string, n),
	}
	b := graph.NewBuilder(n)
	hasCustomer := make([]bool, n)
	hasProvider := make([]bool, n)
	for _, e := range edges {
		u, v := asID[e.a], asID[e.b]
		addRel(b, u, v, e.rel)
		if e.rel == RelProvider {
			hasCustomer[u] = true
			hasProvider[v] = true
		}
	}
	for _, m := range mems {
		u, x := asID[m.as], ixpID[m.ixp]
		addRel(b, u, x, RelMember)
	}
	if err := t.build(b); err != nil {
		return nil, fmt.Errorf("topology: caida: %w", err)
	}

	for i, a := range asNums {
		t.Name[i] = fmt.Sprintf("AS%d", a)
		switch {
		case hasCustomer[i] && !hasProvider[i]:
			t.Class[i], t.Tier[i] = ClassTier1, 1
		case hasCustomer[i]:
			t.Class[i], t.Tier[i] = ClassTransit, 2
		default:
			t.Class[i], t.Tier[i] = ClassEnterprise, 3
		}
	}
	for i, name := range ixpList {
		id := len(asNums) + i
		t.Name[id] = fmt.Sprintf("IXP %s", name)
		t.Class[id], t.Tier[id] = ClassIXP, 0
	}
	return t, nil
}
