package filter

import (
	"fmt"
	"strconv"

	"dice/internal/netaddr"
)

// Parse parses one `filter name { ... }` definition.
func Parse(src string) (*Filter, error) {
	fs, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(fs) != 1 {
		return nil, &ParseError{Line: 1, Msg: fmt.Sprintf("expected exactly one filter, found %d", len(fs))}
	}
	return fs[0], nil
}

// ParseAll parses a sequence of filter definitions.
func ParseAll(src string) ([]*Filter, error) {
	p, err := NewCursor(src, "", nil)
	if err != nil {
		return nil, err
	}
	var out []*Filter
	for p.Peek().Kind != TokEOF {
		f, err := p.filter()
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// Cursor is a parser's position in a token stream, with the helpers and
// the boolean expression grammar (Expr) that every language lexed by Lex
// shares. Filter programs parse their statements over it in this package;
// internal/prop parses property clauses over it and takes its route
// predicates from Expr, adding only its own leaves through a LeafParser.
type Cursor struct {
	toks []Token
	pos  int
	lang string
	leaf LeafParser
}

// LeafParser is the expression grammar's one extension point: Expr offers
// every primary to it first. It returns the leaf it parsed, an error, or
// (nil, nil) with the cursor unmoved when the tokens ahead are not its
// own — the grammar's primaries then apply. A leaf type embeds Leaf to be
// an Expr, and is evaluated by the function handed to EvalConcrete.
type LeafParser func(*Cursor) (Expr, error)

// NewCursor lexes src. lang tags every ParseError raised through the
// cursor (empty for filter programs); leaf may be nil.
func NewCursor(src, lang string, leaf LeafParser) (*Cursor, error) {
	toks, err := Lex(src)
	if err != nil {
		if pe, ok := err.(*ParseError); ok {
			pe.Lang = lang
		}
		return nil, err
	}
	return &Cursor{toks: toks, lang: lang, leaf: leaf}, nil
}

// Peek returns the next token without consuming it.
func (p *Cursor) Peek() Token { return p.PeekAt(0) }

// PeekAt returns the token n positions ahead (the stream's closing EOF
// when that is past the end).
func (p *Cursor) PeekAt(n int) Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

// Next consumes and returns the next token; EOF is never consumed.
func (p *Cursor) Next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

// Errf is a ParseError at the next token's line.
func (p *Cursor) Errf(format string, args ...any) error {
	return p.errAt(p.Peek().Line, fmt.Sprintf(format, args...))
}

func (p *Cursor) errAt(line int, msg string) error {
	return &ParseError{Line: line, Lang: p.lang, Msg: msg}
}

// Expect consumes a token of kind k, or fails naming what was expected.
func (p *Cursor) Expect(k TokenKind, what string) (Token, error) {
	t := p.Peek()
	if t.Kind != k {
		return t, p.Errf("expected %s, found %s", what, t)
	}
	return p.Next(), nil
}

// ExpectKeyword consumes the identifier kw.
func (p *Cursor) ExpectKeyword(kw string) error {
	t := p.Peek()
	if t.Kind != TokIdent || t.Text != kw {
		return p.Errf("expected %q, found %s", kw, t)
	}
	p.Next()
	return nil
}

// filter := "filter" IDENT "{" stmt* "}"
func (p *Cursor) filter() (*Filter, error) {
	if err := p.ExpectKeyword("filter"); err != nil {
		return nil, err
	}
	name, err := p.Expect(TokIdent, "filter name")
	if err != nil {
		return nil, err
	}
	stmts, err := p.block()
	if err != nil {
		return nil, err
	}
	return &Filter{Name: name.Text, Stmts: stmts}, nil
}

// block := "{" stmt* "}"
func (p *Cursor) block() ([]Stmt, error) {
	if _, err := p.Expect(TokLBrace, "'{'"); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for p.Peek().Kind != TokRBrace {
		if p.Peek().Kind == TokEOF {
			return nil, p.Errf("unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.Next() // consume }
	return stmts, nil
}

// stmt := "accept" ";" | "reject" ";" | "if" ... | "set" ... | "add" ...
func (p *Cursor) stmt() (Stmt, error) {
	t := p.Peek()
	if t.Kind != TokIdent {
		return nil, p.Errf("expected statement, found %s", t)
	}
	switch t.Text {
	case "accept":
		p.Next()
		if _, err := p.Expect(TokSemi, "';'"); err != nil {
			return nil, err
		}
		return &ActionStmt{Disposition: Accept}, nil
	case "reject":
		p.Next()
		if _, err := p.Expect(TokSemi, "';'"); err != nil {
			return nil, err
		}
		return &ActionStmt{Disposition: Reject}, nil
	case "if":
		return p.ifStmt()
	case "set":
		return p.setStmt()
	case "add":
		return p.addStmt()
	}
	return nil, p.Errf("unknown statement %q", t.Text)
}

// ifStmt := "if" expr "then" (block | stmt) ("else" (block | stmt))?
func (p *Cursor) ifStmt() (Stmt, error) {
	p.Next() // if
	cond, err := p.Expr()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("then"); err != nil {
		return nil, err
	}
	thenStmts, err := p.blockOrStmt()
	if err != nil {
		return nil, err
	}
	var elseStmts []Stmt
	if p.Peek().Kind == TokIdent && p.Peek().Text == "else" {
		p.Next()
		elseStmts, err = p.blockOrStmt()
		if err != nil {
			return nil, err
		}
	}
	return &IfStmt{Cond: cond, Then: thenStmts, Else: elseStmts}, nil
}

func (p *Cursor) blockOrStmt() ([]Stmt, error) {
	if p.Peek().Kind == TokLBrace {
		return p.block()
	}
	s, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return []Stmt{s}, nil
}

// setStmt := "set" field (number | originName) ";"
func (p *Cursor) setStmt() (Stmt, error) {
	p.Next() // set
	ft, err := p.Expect(TokIdent, "field name")
	if err != nil {
		return nil, err
	}
	field, ok := fieldNames[ft.Text]
	if !ok {
		return nil, p.Errf("unknown field %q", ft.Text)
	}
	switch field {
	case FieldLocalPref, FieldMED:
		v, err := p.Number(32)
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(TokSemi, "';'"); err != nil {
			return nil, err
		}
		return &SetStmt{Field: field, Value: v}, nil
	case FieldOrigin:
		t := p.Peek()
		var v uint64
		switch {
		case t.Kind == TokIdent && t.Text == "igp":
			v = 0
		case t.Kind == TokIdent && t.Text == "egp":
			v = 1
		case t.Kind == TokIdent && t.Text == "incomplete":
			v = 2
		case t.Kind == TokNumber:
			n, err := p.Number(8)
			if err != nil {
				return nil, err
			}
			if n > 2 {
				return nil, p.Errf("origin value %d out of range", n)
			}
			v = n
			if _, err := p.Expect(TokSemi, "';'"); err != nil {
				return nil, err
			}
			return &SetStmt{Field: field, Value: v}, nil
		default:
			return nil, p.Errf("expected origin value, found %s", t)
		}
		p.Next()
		if _, err := p.Expect(TokSemi, "';'"); err != nil {
			return nil, err
		}
		return &SetStmt{Field: field, Value: v}, nil
	default:
		return nil, p.Errf("field %q cannot be set", ft.Text)
	}
}

// addStmt := "add" "community" "(" number "," number ")" ";"
func (p *Cursor) addStmt() (Stmt, error) {
	p.Next() // add
	if err := p.ExpectKeyword("community"); err != nil {
		return nil, err
	}
	as, val, err := p.communityPair()
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(TokSemi, "';'"); err != nil {
		return nil, err
	}
	return &AddCommunityStmt{AS: as, Value: val}, nil
}

func (p *Cursor) communityPair() (uint16, uint16, error) {
	if _, err := p.Expect(TokLParen, "'('"); err != nil {
		return 0, 0, err
	}
	as, err := p.Number(16)
	if err != nil {
		return 0, 0, err
	}
	if _, err := p.Expect(TokComma, "','"); err != nil {
		return 0, 0, err
	}
	val, err := p.Number(16)
	if err != nil {
		return 0, 0, err
	}
	if _, err := p.Expect(TokRParen, "')'"); err != nil {
		return 0, 0, err
	}
	return uint16(as), uint16(val), nil
}

// Number consumes a decimal number that fits in bits.
func (p *Cursor) Number(bits int) (uint64, error) {
	t, err := p.Expect(TokNumber, "number")
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(t.Text, 10, bits)
	if err != nil {
		return 0, p.errAt(t.Line, fmt.Sprintf("bad number %q: %v", t.Text, err))
	}
	return v, nil
}

// Expr parses one boolean expression:
//
//	expr := andExpr ("||" andExpr)*
func (p *Cursor) Expr() (Expr, error) {
	x, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.Peek().Kind == TokOr {
		p.Next()
		y, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		x = &OrExpr{X: x, Y: y}
	}
	return x, nil
}

// andExpr := unary ("&&" unary)*
func (p *Cursor) andExpr() (Expr, error) {
	x, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.Peek().Kind == TokAnd {
		p.Next()
		y, err := p.unary()
		if err != nil {
			return nil, err
		}
		x = &AndExpr{X: x, Y: y}
	}
	return x, nil
}

// unary := "!" unary | primary
func (p *Cursor) unary() (Expr, error) {
	if p.Peek().Kind == TokNot {
		p.Next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &NotExpr{X: x}, nil
	}
	return p.primary()
}

// primary := LeafParser's leaves
//
//	| "(" expr ")" | "true" | "false"
//	| "community" "(" n "," n ")"
//	| field cmpOp number
//	| "net" "~" CIDR ("{" n "," n "}")?
func (p *Cursor) primary() (Expr, error) {
	if p.leaf != nil {
		if x, err := p.leaf(p); x != nil || err != nil {
			return x, err
		}
	}
	t := p.Peek()
	switch {
	case t.Kind == TokLParen:
		p.Next()
		x, err := p.Expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(TokRParen, "')'"); err != nil {
			return nil, err
		}
		return x, nil
	case t.Kind == TokIdent && t.Text == "true":
		p.Next()
		return BoolLit(true), nil
	case t.Kind == TokIdent && t.Text == "false":
		p.Next()
		return BoolLit(false), nil
	case t.Kind == TokIdent && t.Text == "community":
		p.Next()
		as, val, err := p.communityPair()
		if err != nil {
			return nil, err
		}
		return &CommunityExpr{AS: as, Value: val}, nil
	case t.Kind == TokIdent:
		field, ok := fieldNames[t.Text]
		if !ok {
			return nil, p.Errf("unknown field %q", t.Text)
		}
		p.Next()
		op := p.Peek()
		if field == FieldNet {
			if op.Kind != TokTilde {
				return nil, p.Errf("net supports only '~', found %s", op)
			}
			p.Next()
			return p.matchExpr()
		}
		var cmp CmpKind
		switch op.Kind {
		case TokEq:
			cmp = CmpEq
		case TokNe:
			cmp = CmpNe
		case TokLt:
			cmp = CmpLt
		case TokLe:
			cmp = CmpLe
		case TokGt:
			cmp = CmpGt
		case TokGe:
			cmp = CmpGe
		default:
			return nil, p.Errf("expected comparison operator, found %s", op)
		}
		p.Next()
		// Origin comparisons accept symbolic names.
		if field == FieldOrigin && p.Peek().Kind == TokIdent {
			name := p.Next().Text
			var v uint64
			switch name {
			case "igp":
				v = 0
			case "egp":
				v = 1
			case "incomplete":
				v = 2
			default:
				return nil, p.Errf("unknown origin %q", name)
			}
			return &CmpExpr{Field: field, Op: cmp, Value: v}, nil
		}
		v, err := p.Number(32)
		if err != nil {
			return nil, err
		}
		return &CmpExpr{Field: field, Op: cmp, Value: v}, nil
	}
	return nil, p.Errf("expected expression, found %s", t)
}

// matchExpr parses the right side of `net ~`: CIDR with optional {lo,hi}.
func (p *Cursor) matchExpr() (Expr, error) {
	t, err := p.Expect(TokCIDR, "prefix literal")
	if err != nil {
		return nil, err
	}
	pref, perr := netaddr.ParsePrefix(t.Text)
	if perr != nil {
		return nil, p.errAt(t.Line, perr.Error())
	}
	lo, hi := pref.Bits(), 32
	if p.Peek().Kind == TokLBrace {
		p.Next()
		loV, err := p.Number(8)
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(TokComma, "','"); err != nil {
			return nil, err
		}
		hiV, err := p.Number(8)
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(TokRBrace, "'}'"); err != nil {
			return nil, err
		}
		lo, hi = int(loV), int(hiV)
		if lo < pref.Bits() || hi > 32 || lo > hi {
			return nil, p.Errf("bad length range {%d,%d} for %s", lo, hi, pref)
		}
	}
	return &MatchExpr{Prefix: pref, LoLen: lo, HiLen: hi}, nil
}
