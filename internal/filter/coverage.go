package filter

import (
	"sort"
	"strconv"
	"sync"
)

// Coverage accumulates, across many filter evaluations, how often each
// `if` site's condition evaluated true and false. DiCE exploration drives
// evaluations down every feasible path, so after exploration the coverage
// table exposes configuration defects: conditions that can never be true
// (dead accept/reject clauses) or never false (redundant guards).
// Safe for concurrent use (exploration may run parallel workers).
type Coverage struct {
	mu    sync.Mutex
	sites map[string]*SiteCount
	order []string
}

// SiteCount is the outcome tally of one `if` site.
type SiteCount struct {
	Site  string // structural position, e.g. "2" or "2.then.0"
	Cond  string // the condition's source form
	True  int
	False int
}

// NewCoverage creates an empty coverage table.
func NewCoverage() *Coverage {
	return &Coverage{sites: make(map[string]*SiteCount)}
}

// record tallies the outcome of the `if` at index i of the statements
// whose site ids start with prefix, and returns the id prefix of the arm
// that runs.
func (c *Coverage) record(prefix string, i int, cond Expr, taken bool) (arm string) {
	site := prefix + strconv.Itoa(i)
	c.mu.Lock()
	defer c.mu.Unlock()
	sc, ok := c.sites[site]
	if !ok {
		sc = &SiteCount{Site: site, Cond: cond.String()}
		c.sites[site] = sc
		c.order = append(c.order, site)
	}
	if taken {
		sc.True++
		return site + ".then."
	}
	sc.False++
	return site + ".else."
}

// Sites returns the tallies in structural order.
func (c *Coverage) Sites() []SiteCount {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := append([]string(nil), c.order...)
	sort.Strings(keys)
	out := make([]SiteCount, 0, len(keys))
	for _, k := range keys {
		out = append(out, *c.sites[k])
	}
	return out
}

// Dead returns the sites that never took one of their directions across
// all recorded evaluations: cond never true means the guarded clause is
// dead; never false means the guard is redundant on every explored path.
func (c *Coverage) Dead() []SiteCount {
	var out []SiteCount
	for _, sc := range c.Sites() {
		if sc.True == 0 || sc.False == 0 {
			out = append(out, sc)
		}
	}
	return out
}
