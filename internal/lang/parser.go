package lang

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/event"
	"repro/internal/temporal"
)

// Parse parses a CEDR query registration.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("lang: %s (near %s)", fmt.Sprintf(format, args...), p.cur())
}

// keyword reports whether the current token is the (case-insensitive)
// identifier kw.
func (p *parser) keyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.keyword(kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	if p.cur().kind == tokPunct && p.cur().text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q", s)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.cur().kind != tokIdent {
		return "", p.errf("expected identifier")
	}
	return p.next().text, nil
}

var patternOps = map[string]bool{
	"SEQUENCE": true, "ALL": true, "ANY": true, "ATLEAST": true,
	"ATMOST": true, "UNLESS": true, "NOT": true, "CANCEL": true,
	"CANCEL-WHEN": true, "CANCELWHEN": true,
}

var clauseKeywords = map[string]bool{
	"WHERE": true, "OUTPUT": true, "SC": true, "CONSISTENCY": true,
	"AND": true, "AS": true, "EVENT": true, "WHEN": true,
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	if err := p.expectKeyword("EVENT"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	q.Name = name
	if err := p.expectKeyword("WHEN"); err != nil {
		return nil, err
	}
	q.When, err = p.parsePattern()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptKeyword("WHERE"):
			if err := p.parseWhere(q); err != nil {
				return nil, err
			}
		case p.acceptKeyword("OUTPUT"):
			if err := p.parseOutput(q); err != nil {
				return nil, err
			}
		case p.acceptKeyword("SC"):
			if err := p.parseSC(q); err != nil {
				return nil, err
			}
		case p.acceptKeyword("CONSISTENCY"):
			if err := p.parseConsistency(q); err != nil {
				return nil, err
			}
		case p.acceptPunct("@"):
			win, err := p.parseWindowLiteral()
			if err != nil {
				return nil, err
			}
			q.OccSlice = win
		case p.acceptPunct("#"):
			win, err := p.parseWindowLiteral()
			if err != nil {
				return nil, err
			}
			q.ValSlice = win
		case p.cur().kind == tokEOF:
			return q, nil
		default:
			return nil, p.errf("unexpected token")
		}
	}
}

func (p *parser) parsePattern() (PatternNode, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return nil, p.errf("expected pattern expression")
	}
	upper := strings.ToUpper(t.text)
	if patternOps[upper] {
		return p.parseOpNode(upper)
	}
	// Event type, optionally aliased: "INSTALL x" or "SHUTDOWN AS y".
	typ := p.next().text
	node := TypeNode{Type: typ}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		node.Alias = alias
	} else if p.cur().kind == tokIdent && !clauseKeywords[strings.ToUpper(p.cur().text)] &&
		!patternOps[strings.ToUpper(p.cur().text)] {
		node.Alias = p.next().text
	}
	return node, nil
}

func (p *parser) parseOpNode(op string) (PatternNode, error) {
	p.i++ // operator name
	if op == "CANCEL" {
		// CANCEL-WHEN lexed as CANCEL '-'? The lexer folds "CANCEL-WHEN"
		// into a single identifier; reaching here means a bare CANCEL.
		op = "CANCEL-WHEN"
	}
	if op == "CANCELWHEN" {
		op = "CANCEL-WHEN"
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	node := OpNode{Op: op}
	if op == "ATLEAST" || op == "ATMOST" {
		if p.cur().kind != tokNumber {
			return nil, p.errf("%s requires a leading count", op)
		}
		n, _ := strconv.Atoi(p.next().text)
		node.N = n
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
	}
	// Arguments: patterns, optionally terminated by a duration — or, for
	// the UNLESS' 4-argument form, a bare contributor index followed by the
	// duration.
	for {
		if p.cur().kind == tokNumber {
			d, err := p.parseDuration()
			if err != nil {
				return nil, err
			}
			if op == "UNLESS" && p.acceptPunct(",") {
				// UNLESS(E1, E2, n, w): the first number was the index.
				node.Op = "UNLESS'"
				node.N = int(d)
				d, err = p.parseDuration()
				if err != nil {
					return nil, err
				}
			}
			node.W = d
			break
		}
		kid, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		node.Kids = append(node.Kids, kid)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	switch op {
	case "SEQUENCE", "ALL", "ATLEAST", "ATMOST", "UNLESS":
		if node.W <= 0 {
			return nil, fmt.Errorf("lang: %s requires a scope duration", op)
		}
	}
	if op == "UNLESS" && len(node.Kids) != 2 {
		return nil, fmt.Errorf("lang: UNLESS takes exactly two pattern arguments")
	}
	if node.Op == "UNLESS'" && node.N < 1 {
		return nil, fmt.Errorf("lang: UNLESS' contributor index must be >= 1")
	}
	if op == "NOT" {
		if len(node.Kids) != 2 {
			return nil, fmt.Errorf("lang: NOT takes a pattern and a SEQUENCE scope")
		}
		if inner, ok := node.Kids[1].(OpNode); !ok || inner.Op != "SEQUENCE" {
			return nil, fmt.Errorf("lang: the second argument of NOT must be a SEQUENCE")
		}
	}
	if op == "CANCEL-WHEN" && len(node.Kids) != 2 {
		return nil, fmt.Errorf("lang: CANCEL-WHEN takes exactly two pattern arguments")
	}
	return node, nil
}

// parseDuration parses "12 hours", "5 minutes", "300" etc.
func (p *parser) parseDuration() (temporal.Duration, error) {
	if p.cur().kind != tokNumber {
		return 0, p.errf("expected duration")
	}
	num := p.next().text
	if p.cur().kind == tokIdent && !clauseKeywords[strings.ToUpper(p.cur().text)] {
		unit := p.next().text
		return temporal.ParseDuration(num + " " + unit)
	}
	return temporal.ParseDuration(num)
}

func (p *parser) parseWhere(q *Query) error {
	for {
		pred, err := p.parsePred()
		if err != nil {
			return err
		}
		q.Where = append(q.Where, pred)
		if !p.acceptKeyword("AND") {
			return nil
		}
	}
}

func (p *parser) parsePred() (Pred, error) {
	switch {
	case p.acceptPunct("{"):
		l, err := p.parseTerm()
		if err != nil {
			return Pred{}, err
		}
		if p.cur().kind != tokOp {
			return Pred{}, p.errf("expected comparison operator")
		}
		op := p.next().text
		r, err := p.parseTerm()
		if err != nil {
			return Pred{}, err
		}
		if err := p.expectPunct("}"); err != nil {
			return Pred{}, err
		}
		return Pred{L: l, R: r, Op: op}, nil

	case p.keyword("CorrelationKey"):
		p.i++
		if err := p.expectPunct("("); err != nil {
			return Pred{}, err
		}
		attr, err := p.expectIdent()
		if err != nil {
			return Pred{}, err
		}
		if err := p.expectPunct(","); err != nil {
			return Pred{}, err
		}
		mode, err := p.expectIdent()
		if err != nil {
			return Pred{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return Pred{}, err
		}
		mode = strings.ToUpper(mode)
		if mode != "EQUAL" && mode != "UNIQUE" {
			return Pred{}, fmt.Errorf("lang: unknown CorrelationKey mode %q", mode)
		}
		return Pred{CorrAttr: attr, CorrMode: mode}, nil

	case p.acceptPunct("["):
		// [attr Equal 'literal'] or [attr Equal $param]
		attr, err := p.expectIdent()
		if err != nil {
			return Pred{}, err
		}
		if !p.acceptKeyword("Equal") {
			return Pred{}, p.errf("expected Equal")
		}
		if p.acceptPunct("$") {
			name, err := p.expectIdent()
			if err != nil {
				return Pred{}, err
			}
			if err := p.expectPunct("]"); err != nil {
				return Pred{}, err
			}
			return Pred{CorrAttr: attr, CorrMode: "EQUAL", CorrParam: name}, nil
		}
		lit, err := p.parseLiteral()
		if err != nil {
			return Pred{}, err
		}
		if err := p.expectPunct("]"); err != nil {
			return Pred{}, err
		}
		return Pred{CorrAttr: attr, CorrMode: "EQUAL", CorrLit: lit}, nil
	}
	return Pred{}, p.errf("expected predicate")
}

func (p *parser) parseTerm() (Term, error) {
	t := p.cur()
	switch t.kind {
	case tokIdent:
		alias := p.next().text
		if err := p.expectPunct("."); err != nil {
			return Term{}, err
		}
		attr, err := p.expectIdent()
		if err != nil {
			return Term{}, err
		}
		return Term{Alias: alias, Attr: attr}, nil
	case tokNumber, tokString:
		lit, err := p.parseLiteral()
		if err != nil {
			return Term{}, err
		}
		return Term{Lit: lit, IsLit: true}, nil
	case tokPunct:
		if p.acceptPunct("$") {
			name, err := p.expectIdent()
			if err != nil {
				return Term{}, err
			}
			// A parameter term is a literal whose value arrives at binding
			// time (Bind); IsLit stays false until then so site analysis
			// does not run on it.
			return Term{Param: name}, nil
		}
	}
	return Term{}, p.errf("expected term")
}

func (p *parser) parseLiteral() (event.Value, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.i++
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("lang: bad number %q", t.text)
		}
		return n, nil
	case tokString:
		p.i++
		return t.text, nil
	}
	return nil, p.errf("expected literal")
}

func (p *parser) parseOutput(q *Query) error {
	for {
		alias, err := p.expectIdent()
		if err != nil {
			return err
		}
		f := OutputField{Alias: alias}
		if p.acceptPunct(".") {
			attr, err := p.expectIdent()
			if err != nil {
				return err
			}
			f.Attr = attr
		}
		if p.acceptKeyword("AS") {
			as, err := p.expectIdent()
			if err != nil {
				return err
			}
			f.As = as
		}
		q.Output = append(q.Output, f)
		if !p.acceptPunct(",") {
			return nil
		}
	}
}

func (p *parser) parseSC(q *Query) error {
	if err := p.expectPunct("("); err != nil {
		return err
	}
	sel, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct(","); err != nil {
		return err
	}
	cons, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct(")"); err != nil {
		return err
	}
	q.SC = SCClause{Selection: strings.ToLower(sel), Consumption: strings.ToLower(cons)}
	return nil
}

func (p *parser) parseConsistency(q *Query) error {
	level, err := p.expectIdent()
	if err != nil {
		return err
	}
	c := &ConsistencyClause{Level: strings.ToLower(level)}
	if p.acceptPunct("(") {
		d, err := p.parseDuration()
		if err != nil {
			return err
		}
		switch c.Level {
		case "weak":
			c.M, c.HasM = d, true
		case "level":
			c.B, c.HasB = d, true
		default:
			return fmt.Errorf("lang: consistency level %q takes no arguments", c.Level)
		}
		if p.acceptPunct(",") {
			m, err := p.parseDuration()
			if err != nil {
				return err
			}
			c.M, c.HasM = m, true
		}
		if err := p.expectPunct(")"); err != nil {
			return err
		}
	}
	switch c.Level {
	case "strong", "middle", "weak", "level":
	default:
		return fmt.Errorf("lang: unknown consistency level %q", c.Level)
	}
	q.Consistency = c
	return nil
}

// parseWindowLiteral parses "[t1, t2)".
func (p *parser) parseWindowLiteral() (*[2]temporal.Time, error) {
	if err := p.expectPunct("["); err != nil {
		return nil, err
	}
	if p.cur().kind != tokNumber {
		return nil, p.errf("expected window start")
	}
	a, _ := strconv.ParseInt(p.next().text, 10, 64)
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	if p.cur().kind != tokNumber {
		return nil, p.errf("expected window end")
	}
	b, _ := strconv.ParseInt(p.next().text, 10, 64)
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &[2]temporal.Time{temporal.Time(a), temporal.Time(b)}, nil
}
