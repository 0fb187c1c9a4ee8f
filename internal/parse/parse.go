// Package parse reads provenance expressions written in the paper's
// notation, so custom provenance can be fed to the summarizer from text
// files, CLI arguments and the web API:
//
//	aggregated expressions (MAX/SUM/MIN aggregation):
//	   U1·[S1·U1 ⊗ 5 > 2] ⊗ (3,1)@MatchPoint ⊕ U2 ⊗ (5,1)@MatchPoint
//
//	DDP expressions (sums of executions):
//	   <c1:3,1>·<0,[d1·d2]!=0> + <0,[d2·d3]=0>·<c2:3,1>
//
// ASCII aliases are accepted everywhere: `*` for `·`, `(+)` for `⊕`,
// `(x)` for `⊗`, `!=` for `≠`, `<...>` for `⟨...⟩`. Annotation names are
// bare identifiers (letters, digits, `_`, `-`, `.`); quoted strings
// ("Match Point") allow arbitrary characters.
package parse

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/ddp"
	"repro/internal/provenance"
)

// token kinds
type kind int

const (
	tEOF kind = iota
	tIdent
	tNumber
	tDot    // · or *
	tOPlus  // ⊕ or (+)
	tOTimes // ⊗ or (x)
	tPlus   // +
	tAt     // @
	tComma  // ,
	tLParen // (
	tRParen // )
	tLBrack // [
	tRBrack // ]
	tLAngle // ⟨ or <
	tRAngle // ⟩ or >
	tCmp    // > >= < <= = != ≠ (disambiguated from angles by context)
	tColon  // :
)

type token struct {
	kind kind
	text string
	pos  int
}

// lexer tokenizes the input. Angle brackets and comparison operators
// share characters (< and >); the lexer emits tCmp only for multi-char
// operators (>=, <=, !=) and '='; single '<' and '>' are emitted as
// angle tokens and re-interpreted by the parsers from context.
type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case strings.HasPrefix(l.src[l.pos:], "(+)"):
			l.emit(tOPlus, "(+)", 3)
		case strings.HasPrefix(l.src[l.pos:], "(x)"):
			l.emit(tOTimes, "(x)", 3)
		case strings.HasPrefix(l.src[l.pos:], "⊕"):
			l.emit(tOPlus, "⊕", len("⊕"))
		case strings.HasPrefix(l.src[l.pos:], "⊗"):
			l.emit(tOTimes, "⊗", len("⊗"))
		case strings.HasPrefix(l.src[l.pos:], "·"):
			l.emit(tDot, "·", len("·"))
		case strings.HasPrefix(l.src[l.pos:], "⟨"):
			l.emit(tLAngle, "⟨", len("⟨"))
		case strings.HasPrefix(l.src[l.pos:], "⟩"):
			l.emit(tRAngle, "⟩", len("⟩"))
		case strings.HasPrefix(l.src[l.pos:], "≠"):
			l.emit(tCmp, "≠", len("≠"))
		case strings.HasPrefix(l.src[l.pos:], ">="):
			l.emit(tCmp, ">=", 2)
		case strings.HasPrefix(l.src[l.pos:], "<="):
			l.emit(tCmp, "<=", 2)
		case strings.HasPrefix(l.src[l.pos:], "!="):
			l.emit(tCmp, "!=", 2)
		case c == '*':
			l.emit(tDot, "*", 1)
		case c == '+':
			l.emit(tPlus, "+", 1)
		case c == '@':
			l.emit(tAt, "@", 1)
		case c == ',':
			l.emit(tComma, ",", 1)
		case c == '(':
			l.emit(tLParen, "(", 1)
		case c == ')':
			l.emit(tRParen, ")", 1)
		case c == '[':
			l.emit(tLBrack, "[", 1)
		case c == ']':
			l.emit(tRBrack, "]", 1)
		case c == '<':
			l.emit(tLAngle, "<", 1)
		case c == '>':
			l.emit(tRAngle, ">", 1)
		case c == '=':
			l.emit(tCmp, "=", 1)
		case c == ':':
			l.emit(tColon, ":", 1)
		case c == '"':
			end := strings.IndexByte(l.src[l.pos+1:], '"')
			if end < 0 {
				return nil, fmt.Errorf("parse: unterminated string at %d", l.pos)
			}
			l.emit(tIdent, l.src[l.pos+1:l.pos+1+end], end+2)
		case c >= '0' && c <= '9' || c == '-' && l.peekDigit():
			start := l.pos
			l.pos++
			for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
				// stop before "." that is not part of a number (e.g. a.b)?
				// numbers in this grammar never touch identifiers, keep simple
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tNumber, text: l.src[start:l.pos], pos: start})
		default:
			r, width := utf8.DecodeRuneInString(l.src[l.pos:])
			if !isIdentRune(r) {
				return nil, fmt.Errorf("parse: unexpected character %q at %d", r, l.pos)
			}
			start := l.pos
			for l.pos < len(l.src) {
				r, width = utf8.DecodeRuneInString(l.src[l.pos:])
				if !isIdentRune(r) {
					break
				}
				l.pos += width
			}
			l.toks = append(l.toks, token{kind: tIdent, text: l.src[start:l.pos], pos: start})
		}
	}
	l.toks = append(l.toks, token{kind: tEOF, pos: len(l.src)})
	return l.toks, nil
}

func (l *lexer) emit(k kind, text string, width int) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: l.pos})
	l.pos += width
}

func (l *lexer) peekDigit() bool {
	return l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9'
}

func isIdentRune(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '-' || c == '.'
}

// parser holds the token stream.
type parser struct {
	toks []token
	at   int
}

func (p *parser) peek() token { return p.toks[p.at] }
func (p *parser) next() token { t := p.toks[p.at]; p.at++; return t }
func (p *parser) accept(k kind) (token, bool) {
	if p.toks[p.at].kind == k {
		return p.next(), true
	}
	return token{}, false
}

func (p *parser) expect(k kind, what string) (token, error) {
	if t, ok := p.accept(k); ok {
		return t, nil
	}
	t := p.peek()
	return token{}, fmt.Errorf("parse: expected %s at %d, found %q", what, t.pos, t.text)
}

func (p *parser) errHere(format string, args ...any) error {
	return fmt.Errorf("parse: "+format+" at %d", append(args, p.peek().pos)...)
}

// Agg parses an aggregated provenance expression: tensors joined by ⊕.
// Each tensor is  poly ⊗ (value, count) [@group]  where poly is a
// product/sum of annotations, constants and [guard] elements.
func Agg(kind provenance.AggKind, src string) (*provenance.Agg, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var tensors []provenance.Tensor
	for {
		t, err := p.tensor()
		if err != nil {
			return nil, err
		}
		tensors = append(tensors, t)
		if _, ok := p.accept(tOPlus); !ok {
			break
		}
	}
	if p.peek().kind != tEOF {
		return nil, p.errHere("trailing input %q", p.peek().text)
	}
	g := provenance.NewAgg(kind, tensors...)
	// Simplify folds constants (2·3 into 6); the compiled arena the
	// scorer runs on holds int32 ones.
	if provenance.CompileArena(g) == nil {
		return nil, fmt.Errorf("parse: a polynomial folds to a constant outside int32")
	}
	return g, nil
}

// tensor = poly ⊗ value-pair [@ group]
func (p *parser) tensor() (provenance.Tensor, error) {
	poly, err := p.poly()
	if err != nil {
		return provenance.Tensor{}, err
	}
	if _, err := p.expect(tOTimes, "⊗"); err != nil {
		return provenance.Tensor{}, err
	}
	value, count, err := p.valuePair()
	if err != nil {
		return provenance.Tensor{}, err
	}
	t := provenance.Tensor{Prov: poly, Value: value, Count: count}
	if _, ok := p.accept(tAt); ok {
		g, err := p.name("group annotation")
		if err != nil {
			return provenance.Tensor{}, err
		}
		t.Group = g
	}
	return t, nil
}

// valuePair = number | ( number , number )
func (p *parser) valuePair() (float64, int, error) {
	if _, ok := p.accept(tLParen); ok {
		v, err := p.number()
		if err != nil {
			return 0, 0, err
		}
		count := 1
		if _, ok := p.accept(tComma); ok {
			c, err := p.number()
			if err != nil {
				return 0, 0, err
			}
			count = int(c)
		}
		if _, err := p.expect(tRParen, ")"); err != nil {
			return 0, 0, err
		}
		return v, count, nil
	}
	v, err := p.number()
	if err != nil {
		return 0, 0, err
	}
	return v, 1, nil
}

func (p *parser) number() (float64, error) {
	t, err := p.expect(tNumber, "number")
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, fmt.Errorf("parse: bad number %q at %d", t.text, t.pos)
	}
	return v, nil
}

// poly = term { + term } ; term = factor { ·/* factor }
func (p *parser) poly() (provenance.Expr, error) {
	term, err := p.term()
	if err != nil {
		return nil, err
	}
	terms := []provenance.Expr{term}
	for {
		if _, ok := p.accept(tPlus); !ok {
			break
		}
		t, err := p.term()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return provenance.Sum{Terms: terms}, nil
}

func (p *parser) term() (provenance.Expr, error) {
	f, err := p.factor()
	if err != nil {
		return nil, err
	}
	factors := []provenance.Expr{f}
	for {
		if _, ok := p.accept(tDot); !ok {
			break
		}
		f, err := p.factor()
		if err != nil {
			return nil, err
		}
		factors = append(factors, f)
	}
	if len(factors) == 1 {
		return factors[0], nil
	}
	return provenance.Prod{Factors: factors}, nil
}

// factor = ident | number | ( poly ) | [ poly ⊗ value cmp bound ]
func (p *parser) factor() (provenance.Expr, error) {
	switch t := p.peek(); t.kind {
	case tIdent:
		a, err := p.name("annotation")
		if err != nil {
			return nil, err
		}
		return provenance.Var{Ann: a}, nil
	case tNumber:
		p.next()
		// The compiled arena holds constants as int32.
		n, err := strconv.ParseInt(t.text, 10, 32)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("parse: polynomial constants must be naturals below 2^31, got %q at %d", t.text, t.pos)
		}
		return provenance.Const{N: int(n)}, nil
	case tLParen:
		p.next()
		inner, err := p.poly()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	case tLBrack:
		p.next()
		return p.guard()
	default:
		return nil, p.errHere("expected annotation, constant, '(' or '[', found %q", t.text)
	}
}

// guard = poly ⊗ value cmp bound ]   (the '[' is already consumed)
func (p *parser) guard() (provenance.Expr, error) {
	inner, err := p.poly()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tOTimes, "⊗ in guard"); err != nil {
		return nil, err
	}
	value, err := p.number()
	if err != nil {
		return nil, err
	}
	op, err := p.cmpOp()
	if err != nil {
		return nil, err
	}
	bound, err := p.number()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tRBrack, "]"); err != nil {
		return nil, err
	}
	return provenance.Cmp{Inner: inner, Value: value, Op: op, Bound: bound}, nil
}

// cmpOp accepts tCmp tokens plus bare angle tokens (< and > double as
// comparison operators inside guards).
func (p *parser) cmpOp() (provenance.CmpOp, error) {
	switch t := p.peek(); t.kind {
	case tCmp:
		p.next()
		switch t.text {
		case ">=":
			return provenance.OpGE, nil
		case "<=":
			return provenance.OpLE, nil
		case "=":
			return provenance.OpEQ, nil
		case "≠", "!=":
			return provenance.OpNE, nil
		}
		return 0, fmt.Errorf("parse: unknown operator %q at %d", t.text, t.pos)
	case tRAngle: // ">"
		p.next()
		return provenance.OpGT, nil
	case tLAngle: // "<"
		p.next()
		return provenance.OpLT, nil
	default:
		return 0, p.errHere("expected comparison operator, found %q", t.text)
	}
}

// name reads an annotation name, refusing the reserved ones
// (provenance.Reserved), which only a quoted string can spell.
func (p *parser) name(what string) (provenance.Annotation, error) {
	t, err := p.expect(tIdent, what)
	if err != nil {
		return "", err
	}
	if a := provenance.Annotation(t.text); !provenance.Reserved(a) {
		return a, nil
	}
	return "", fmt.Errorf("parse: annotation %q at %d is reserved (it begins with 0x00)", t.text, t.pos)
}

// DDP parses a data-dependent-process expression: executions joined by
// '+', each a '·'-product of transitions ⟨cost-var:cost,1⟩ or
// ⟨0,[d1·d2]op0⟩ (angle brackets may be ASCII '<'/'>').
func DDP(src string) (*ddp.Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var execs []ddp.Execution
	for {
		ex, err := p.execution()
		if err != nil {
			return nil, err
		}
		execs = append(execs, ex)
		if _, ok := p.accept(tPlus); !ok {
			break
		}
	}
	if p.peek().kind != tEOF {
		return nil, p.errHere("trailing input %q", p.peek().text)
	}
	return ddp.NewExpr(execs...), nil
}

func (p *parser) execution() (ddp.Execution, error) {
	var ex ddp.Execution
	for {
		t, err := p.transition()
		if err != nil {
			return nil, err
		}
		ex = append(ex, t)
		if _, ok := p.accept(tDot); !ok {
			return ex, nil
		}
	}
}

// transition = ⟨ ident : number , number ⟩ | ⟨ 0 , [ d1 · d2 ] op 0 ⟩
func (p *parser) transition() (ddp.Transition, error) {
	if _, err := p.expect(tLAngle, "⟨"); err != nil {
		return ddp.Transition{}, err
	}
	switch t := p.peek(); t.kind {
	case tIdent: // user transition ⟨c:cost,1⟩
		costVar, err := p.name("cost variable")
		if err != nil {
			return ddp.Transition{}, err
		}
		if _, err := p.expect(tColon, ":"); err != nil {
			return ddp.Transition{}, err
		}
		costTok := p.peek()
		cost, err := p.number()
		if err != nil {
			return ddp.Transition{}, err
		}
		if !ddp.ValidCost(cost) {
			return ddp.Transition{}, fmt.Errorf("parse: DDP costs must be finite and non-negative, got %q at %d", costTok.text, costTok.pos)
		}
		if _, ok := p.accept(tComma); ok {
			if _, err := p.number(); err != nil { // the constant 1
				return ddp.Transition{}, err
			}
		}
		if _, err := p.expect(tRAngle, "⟩"); err != nil {
			return ddp.Transition{}, err
		}
		return ddp.User(costVar, cost), nil

	case tNumber: // condition transition ⟨0,[d1·d2]op0⟩
		p.next() // the 0
		if _, err := p.expect(tComma, ","); err != nil {
			return ddp.Transition{}, err
		}
		if _, err := p.expect(tLBrack, "["); err != nil {
			return ddp.Transition{}, err
		}
		d1, err := p.name("database variable")
		if err != nil {
			return ddp.Transition{}, err
		}
		if _, err := p.expect(tDot, "·"); err != nil {
			return ddp.Transition{}, err
		}
		d2, err := p.name("database variable")
		if err != nil {
			return ddp.Transition{}, err
		}
		if _, err := p.expect(tRBrack, "]"); err != nil {
			return ddp.Transition{}, err
		}
		op, err := p.cmpOp()
		if err != nil {
			return ddp.Transition{}, err
		}
		var nonZero bool
		switch op {
		case provenance.OpNE:
			nonZero = true
		case provenance.OpEQ:
			nonZero = false
		default:
			return ddp.Transition{}, fmt.Errorf("parse: DDP conditions use = or ≠, got %v", op)
		}
		if _, err := p.number(); err != nil { // the 0 bound
			return ddp.Transition{}, err
		}
		if _, err := p.expect(tRAngle, "⟩"); err != nil {
			return ddp.Transition{}, err
		}
		return ddp.Cond(d1, d2, nonZero), nil

	default:
		return ddp.Transition{}, p.errHere("expected cost variable or 0, found %q", t.text)
	}
}
