// Package config parses the daemon configuration: router identity, peers
// with their import/export policies, locally originated networks, and the
// anycast allowlist DiCE uses to suppress hijack false positives (§4.2).
//
// The format is BIRD-inspired:
//
//	router id 10.0.0.2;
//	local as 65002;
//
//	filter customer_in {
//	    if net ~ 10.7.0.0/16 then accept;
//	    reject;
//	}
//
//	anycast 192.88.99.0/24;
//
//	network 10.2.0.0/16;
//
//	peer customer {
//	    remote 10.0.0.1 as 65001;
//	    import filter customer_in;
//	    export filter accept_all;
//	}
package config

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"

	"dice/internal/filter"
	"dice/internal/netaddr"
)

// Peer describes one configured peering.
type Peer struct {
	Name   string
	Addr   netaddr.Addr // remote router ID / address on the virtual net
	AS     uint16
	Import *filter.Filter // nil = accept all
	Export *filter.Filter // nil = accept all

	// HoldTime overrides the session hold time (0 = default 90s).
	HoldTime time.Duration
}

// Config is a parsed daemon configuration.
type Config struct {
	RouterID netaddr.Addr
	LocalAS  uint16
	Peers    []*Peer
	Filters  map[string]*filter.Filter
	Networks []netaddr.Prefix // locally originated
	Anycast  []netaddr.Prefix // known-anycast space (oracle FP suppression)
}

// FindPeer returns the peer with the given name, or nil.
func (c *Config) FindPeer(name string) *Peer {
	for _, p := range c.Peers {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// IsAnycast reports whether p lies inside configured anycast space.
func (c *Config) IsAnycast(p netaddr.Prefix) bool {
	for _, a := range c.Anycast {
		if a.Covers(p) {
			return true
		}
	}
	return false
}

// Parse parses a configuration document.
func Parse(src string) (*Config, error) {
	cfg := &Config{Filters: map[string]*filter.Filter{}}
	lines := splitStatements(src)
	for _, st := range lines {
		if err := parseStatement(cfg, st); err != nil {
			return nil, err
		}
	}
	if cfg.RouterID == 0 {
		return nil, fmt.Errorf("config: missing 'router id'")
	}
	if cfg.LocalAS == 0 {
		return nil, fmt.Errorf("config: missing 'local as'")
	}
	seen := map[string]bool{}
	for _, p := range cfg.Peers {
		if seen[p.Name] {
			return nil, fmt.Errorf("config: duplicate peer %q", p.Name)
		}
		seen[p.Name] = true
	}
	return cfg, nil
}

// statement is a top-level chunk: either a single `... ;` line or a
// block `keyword name { ... }`.
type statement struct {
	text string
	line int
}

// splitStatements cuts the source into top-level statements, keeping
// brace-blocks (filters, peers) intact. Comments are dropped and newlines
// kept, so a statement's line is that of its first rune and a line inside
// a block is its line plus the newlines before it in the text.
func splitStatements(src string) []statement {
	var out []statement
	var buf strings.Builder
	depth, line, start := 0, 1, 0 // start is 0 until the statement's first rune
	flush := func() {
		if s := strings.TrimSpace(buf.String()); s != "" {
			out = append(out, statement{text: s, line: start})
		}
		buf.Reset()
		start = 0
	}
	inComment := false
	for _, r := range src {
		switch {
		case r == '\n':
			line++
			inComment = false
		case inComment:
			continue
		case r == '#':
			inComment = true
			continue
		case start == 0 && !unicode.IsSpace(r):
			start = line
		}
		if r == ';' && depth == 0 {
			flush()
			continue
		}
		buf.WriteRune(r)
		switch r {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				flush()
			}
		}
	}
	flush()
	return out
}

func parseStatement(cfg *Config, st statement) error {
	fields := strings.Fields(st.text)
	if len(fields) == 0 {
		return nil
	}
	switch fields[0] {
	case "router":
		if len(fields) != 3 || fields[1] != "id" {
			return fmt.Errorf("config: line %d: usage: router id <addr>", st.line)
		}
		a, err := netaddr.ParseAddr(fields[2])
		if err != nil {
			return fmt.Errorf("config: line %d: %v", st.line, err)
		}
		cfg.RouterID = a
	case "local":
		if len(fields) != 3 || fields[1] != "as" {
			return fmt.Errorf("config: line %d: usage: local as <asn>", st.line)
		}
		as, err := strconv.ParseUint(fields[2], 10, 16)
		if err != nil {
			return fmt.Errorf("config: line %d: bad AS %q", st.line, fields[2])
		}
		cfg.LocalAS = uint16(as)
	case "network":
		if len(fields) != 2 {
			return fmt.Errorf("config: line %d: usage: network <prefix>", st.line)
		}
		p, err := netaddr.ParsePrefix(fields[1])
		if err != nil {
			return fmt.Errorf("config: line %d: %v", st.line, err)
		}
		cfg.Networks = append(cfg.Networks, p)
	case "anycast":
		if len(fields) != 2 {
			return fmt.Errorf("config: line %d: usage: anycast <prefix>", st.line)
		}
		p, err := netaddr.ParsePrefix(fields[1])
		if err != nil {
			return fmt.Errorf("config: line %d: %v", st.line, err)
		}
		cfg.Anycast = append(cfg.Anycast, p)
	case "filter":
		f, err := filter.Parse(st.text)
		if err != nil {
			// One line number, the file's: the filter's text starts at st.line.
			var perr *filter.ParseError
			if errors.As(err, &perr) {
				return fmt.Errorf("config: line %d: %s", st.line+perr.Line-1, perr.Msg)
			}
			return fmt.Errorf("config: line %d: %v", st.line, err)
		}
		if _, dup := cfg.Filters[f.Name]; dup {
			return fmt.Errorf("config: line %d: duplicate filter %q", st.line, f.Name)
		}
		cfg.Filters[f.Name] = f
	case "peer":
		return parsePeer(cfg, st)
	default:
		return fmt.Errorf("config: line %d: unknown statement %q", st.line, fields[0])
	}
	return nil
}

func parsePeer(cfg *Config, st statement) error {
	open := strings.IndexByte(st.text, '{')
	if open < 0 || !strings.HasSuffix(strings.TrimSpace(st.text), "}") {
		return fmt.Errorf("config: line %d: peer requires a block", st.line)
	}
	head := strings.Fields(st.text[:open])
	if len(head) != 2 {
		return fmt.Errorf("config: line %d: usage: peer <name> { ... }", st.line)
	}
	p := &Peer{Name: head[1]}
	body := st.text[open+1 : strings.LastIndexByte(st.text, '}')]
	line := st.line + strings.Count(st.text[:open], "\n")
	for _, raw := range strings.Split(body, ";") {
		item := strings.TrimSpace(raw)
		at := line + strings.Count(raw[:strings.Index(raw, item)], "\n")
		line += strings.Count(raw, "\n")
		if item == "" {
			continue
		}
		f := strings.Fields(item)
		switch {
		case f[0] == "remote" && len(f) == 4 && f[2] == "as":
			a, err := netaddr.ParseAddr(f[1])
			if err != nil {
				return fmt.Errorf("config: line %d: %v", at, err)
			}
			as, err := strconv.ParseUint(f[3], 10, 16)
			if err != nil {
				return fmt.Errorf("config: line %d: bad AS %q", at, f[3])
			}
			p.Addr, p.AS = a, uint16(as)
		case f[0] == "import" && len(f) == 3 && f[1] == "filter":
			flt, ok := cfg.Filters[f[2]]
			if !ok {
				return fmt.Errorf("config: line %d: unknown filter %q", at, f[2])
			}
			p.Import = flt
		case f[0] == "export" && len(f) == 3 && f[1] == "filter":
			flt, ok := cfg.Filters[f[2]]
			if !ok {
				return fmt.Errorf("config: line %d: unknown filter %q", at, f[2])
			}
			p.Export = flt
		case f[0] == "hold" && len(f) == 2:
			secs, err := strconv.Atoi(f[1])
			if err != nil || secs < 0 {
				return fmt.Errorf("config: line %d: bad hold time %q", at, f[1])
			}
			p.HoldTime = time.Duration(secs) * time.Second
		default:
			return fmt.Errorf("config: line %d: unknown peer option %q", at, item)
		}
	}
	if p.Addr == 0 || p.AS == 0 {
		return fmt.Errorf("config: line %d: peer %q missing 'remote <addr> as <asn>'", st.line, p.Name)
	}
	cfg.Peers = append(cfg.Peers, p)
	return nil
}
