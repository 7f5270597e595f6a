package filter

import (
	"fmt"
	"sort"
	"sync"

	"dice/internal/bgp"
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

func (c *Coverage) record(site, cond string, taken bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sc, ok := c.sites[site]
	if !ok {
		sc = &SiteCount{Site: site, Cond: cond}
		c.sites[site] = sc
		c.order = append(c.order, site)
	}
	if taken {
		sc.True++
	} else {
		sc.False++
	}
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

// RunWithCoverage evaluates the filter like Run while tallying each `if`
// site's outcome into cov (which may be shared across runs).
func RunWithCoverage(f *Filter, subj *Subject, br Brancher, cov *Coverage) Verdict {
	v := Verdict{Disposition: Reject}
	runStmtsCov(f.Stmts, subj, br, &v, cov, "")
	return v
}

// runStmtsCov mirrors runStmts with per-site accounting.
func runStmtsCov(stmts []Stmt, subj *Subject, br Brancher, v *Verdict, cov *Coverage, prefix string) bool {
	for i, s := range stmts {
		switch st := s.(type) {
		case *ActionStmt:
			v.Disposition = st.Disposition
			return true
		case *SetStmt:
			switch st.Field {
			case FieldLocalPref:
				val := uint32(st.Value)
				v.SetLocalPref = &val
			case FieldMED:
				val := uint32(st.Value)
				v.SetMED = &val
			case FieldOrigin:
				val := uint8(st.Value)
				v.SetOrigin = &val
			}
		case *AddCommunityStmt:
			v.AddCommunities = append(v.AddCommunities, bgp.MakeCommunity(st.AS, st.Value))
		case *IfStmt:
			site := fmt.Sprintf("%s%d", prefix, i)
			cond := evalExpr(st.Cond, subj, nil)
			v.BranchesTaken++
			taken := br.Branch(cond)
			cov.record(site, st.Cond.String(), taken)
			if taken {
				if runStmtsCov(st.Then, subj, br, v, cov, site+".then.") {
					return true
				}
			} else if len(st.Else) > 0 {
				if runStmtsCov(st.Else, subj, br, v, cov, site+".else.") {
					return true
				}
			}
		}
	}
	return false
}
