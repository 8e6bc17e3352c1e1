package tuple

import (
	"fmt"
	"strings"
)

// MatchOp enumerates the declarative field matchers a Template may use.
// Declarative (rather than arbitrary function) matchers keep search criteria
// serializable so they can be gcast to remote write groups, while still
// permitting the paper's "general search criteria": equality, typed
// wildcards, ranges, and string containment.
type MatchOp int

// Field matcher operators.
const (
	// OpAny matches any value of the given kind (a Linda "formal").
	OpAny MatchOp = iota + 1
	// OpEq matches values equal to the operand (a Linda "actual").
	OpEq
	// OpRange matches values v with lo <= v <= hi (ordered kinds).
	OpRange
	// OpPrefix matches strings having the operand string as a prefix.
	OpPrefix
	// OpContains matches strings containing the operand string.
	OpContains
	// OpNe matches values not equal to the operand.
	OpNe
)

// String returns the operator's name.
func (op MatchOp) String() string {
	switch op {
	case OpAny:
		return "any"
	case OpEq:
		return "eq"
	case OpRange:
		return "range"
	case OpPrefix:
		return "prefix"
	case OpContains:
		return "contains"
	case OpNe:
		return "ne"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// Matcher constrains a single tuple field.
type Matcher struct {
	Op   MatchOp
	Kind Kind  // required kind of the field
	A, B Value // operands: A for Eq/Ne/Prefix/Contains and range-lo, B range-hi
}

// Any returns a matcher accepting any value of kind k.
func Any(k Kind) Matcher { return Matcher{Op: OpAny, Kind: k} }

// Eq returns a matcher accepting values equal to v.
func Eq(v Value) Matcher { return Matcher{Op: OpEq, Kind: v.Kind(), A: v} }

// Ne returns a matcher accepting values of v's kind not equal to v.
func Ne(v Value) Matcher { return Matcher{Op: OpNe, Kind: v.Kind(), A: v} }

// Range returns a matcher accepting values v with lo <= v <= hi. Both
// bounds must share a kind.
func Range(lo, hi Value) Matcher {
	return Matcher{Op: OpRange, Kind: lo.Kind(), A: lo, B: hi}
}

// Prefix returns a matcher accepting strings with the given prefix.
func Prefix(p string) Matcher {
	return Matcher{Op: OpPrefix, Kind: KindString, A: String(p)}
}

// Contains returns a matcher accepting strings containing the substring.
func Contains(sub string) Matcher {
	return Matcher{Op: OpContains, Kind: KindString, A: String(sub)}
}

// Matches reports whether the matcher accepts the value.
func (m Matcher) Matches(v Value) bool { return m.matches(&v) }

// matches is Matches through pointers: a store search runs it once per field
// of every candidate, on matchers and fields where they lie.
func (m *Matcher) matches(v *Value) bool {
	if v.kind != m.Kind {
		return false
	}
	switch m.Op {
	case OpAny:
		return true
	case OpEq:
		return v.equal(&m.A)
	case OpNe:
		return !v.equal(&m.A)
	case OpRange:
		return m.A.compare(v) <= 0 && v.compare(&m.B) <= 0
	case OpPrefix:
		return strings.HasPrefix(v.MustString(), m.A.MustString())
	case OpContains:
		return strings.Contains(v.MustString(), m.A.MustString())
	default:
		return false
	}
}

// Size returns the approximate encoded size of the matcher in bytes.
func (m Matcher) Size() int {
	n := 3 // op + kind
	if m.A.IsValid() {
		n += m.A.Size()
	}
	if m.B.IsValid() {
		n += m.B.Size()
	}
	return n
}

// String renders the matcher.
func (m Matcher) String() string {
	switch m.Op {
	case OpAny:
		return "?" + m.Kind.String()
	case OpRange:
		return fmt.Sprintf("[%s..%s]", m.A, m.B)
	default:
		return fmt.Sprintf("%s(%s)", m.Op, m.A)
	}
}

// Template is a search criterion: a predicate over tuples (paper §2). A
// tuple matches when it has exactly Arity fields and each field satisfies
// the corresponding matcher.
type Template struct {
	matchers []Matcher
}

// NewTemplate builds a template from field matchers.
func NewTemplate(ms ...Matcher) Template {
	cp := make([]Matcher, len(ms))
	copy(cp, ms)
	return Template{matchers: cp}
}

// MatchTuple builds a template matching tuples equal to t field-for-field
// (identity excluded).
func MatchTuple(t Tuple) Template {
	ms := make([]Matcher, t.Arity())
	for i := range ms {
		ms[i] = Eq(t.Field(i))
	}
	return Template{matchers: ms}
}

// Arity returns the number of field matchers.
func (tp Template) Arity() int { return len(tp.matchers) }

// Matcher returns the i-th matcher.
func (tp Template) Matcher(i int) Matcher { return tp.matchers[i] }

// Matchers returns a copy of the matcher slice.
func (tp Template) Matchers() []Matcher {
	cp := make([]Matcher, len(tp.matchers))
	copy(cp, tp.matchers)
	return cp
}

// Matches reports whether the tuple satisfies the search criterion.
func (tp Template) Matches(t Tuple) bool { return tp.MatchesExcept(t, -1) }

// MatchesExcept is Matches with field skip taken as satisfied. An ordered
// store passes its key field once its bounds have decided that matcher.
func (tp Template) MatchesExcept(t Tuple, skip int) bool {
	if len(t.fields) != len(tp.matchers) {
		return false
	}
	for i := range tp.matchers {
		if i != skip && !tp.matchers[i].matches(&t.fields[i]) {
			return false
		}
	}
	return true
}

// GroundHash is the ContentHash every tuple the template matches has, when
// every matcher is OpEq (a ground template); ok is false otherwise. It
// allocates nothing.
func (tp Template) GroundHash() (h uint64, ok bool) {
	h = uint64(len(tp.matchers))
	for i := range tp.matchers {
		m := &tp.matchers[i]
		if m.Op != OpEq {
			return 0, false
		}
		h = m.A.hash(h)
	}
	return h, true
}

// Name returns the exact-match string of the first field when the template
// pins it with OpEq on a string, else "". Classifiers use this to route
// Linda-style named tuples.
func (tp Template) Name() (string, bool) {
	if len(tp.matchers) == 0 {
		return "", false
	}
	m := tp.matchers[0]
	if m.Op == OpEq && m.Kind == KindString {
		return m.A.MustString(), true
	}
	return "", false
}

// Size returns the approximate encoded size in bytes, the |sc| of the
// paper's cost table.
func (tp Template) Size() int {
	n := 2
	for _, m := range tp.matchers {
		n += m.Size()
	}
	return n
}

// String renders the template.
func (tp Template) String() string {
	parts := make([]string, len(tp.matchers))
	for i, m := range tp.matchers {
		parts[i] = m.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
