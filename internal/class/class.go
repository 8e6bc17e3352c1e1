// Package class partitions PASO objects into object classes and computes
// search lists for search criteria (paper §4.1).
//
// Objects are stored and searched for by partitioning them into object
// classes; a classifier implements the paper's obj-clss: O → C function and
// the sc-list: SC → C⁺ function. sc-list(sc) must be exhaustive: every
// object matching sc belongs to one of the listed classes.
package class

import (
	"strconv"

	"paso/internal/tuple"
)

// ID names an object class. Class IDs are stable strings so they can be
// used as group-name components ("wg/<class>").
type ID string

// Classifier maps objects to classes and search criteria to exhaustive
// class lists.
type Classifier interface {
	// ClassOf returns the class of an object (obj-clss in the paper).
	ClassOf(t tuple.Tuple) ID
	// SearchList returns an exhaustive list of classes that may contain
	// objects matching the template (sc-list in the paper). The list is
	// ordered by decreasing expected hit probability.
	SearchList(tp tuple.Template) []ID
	// Classes enumerates every class this classifier can produce.
	Classes() []ID
}

// NameArity classifies tuples Linda-style by (first-field string name,
// arity). Tuples without a string first field fall into per-arity catchall
// classes. A template that pins the first field with an exact string match
// maps to a single class; otherwise its search list is every class with the
// template's arity.
type NameArity struct {
	names   []string
	maxArit int
}

var _ Classifier = (*NameArity)(nil)

// NewNameArity builds a classifier for the given known tuple names and a
// maximum arity (inclusive). The class universe must be finite and known up
// front so that write groups can be pre-assigned (paper §4.1 assumes a fixed
// set C of object classes).
func NewNameArity(names []string, maxArity int) *NameArity {
	cp := make([]string, len(names))
	copy(cp, names)
	return &NameArity{names: cp, maxArit: maxArity}
}

// classFor builds the class ID for a name/arity pair.
func classFor(name string, arity int) ID {
	if name == "" {
		return ID("_/" + strconv.Itoa(arity))
	}
	return ID(name + "/" + strconv.Itoa(arity))
}

// ClassOf implements Classifier.
func (c *NameArity) ClassOf(t tuple.Tuple) ID {
	name := t.Name()
	if !c.known(name) {
		name = ""
	}
	return classFor(name, t.Arity())
}

func (c *NameArity) known(name string) bool {
	for _, n := range c.names {
		if n == name {
			return true
		}
	}
	return false
}

// SearchList implements Classifier. If the template names a known tuple the
// list is the single (name, arity) class; otherwise it is every class with
// matching arity — still exhaustive because ClassOf only depends on name and
// arity.
func (c *NameArity) SearchList(tp tuple.Template) []ID {
	if name, ok := tp.Name(); ok && c.known(name) {
		return []ID{classFor(name, tp.Arity())}
	}
	list := make([]ID, 0, len(c.names)+1)
	if name, ok := tp.Name(); ok && !c.known(name) {
		// Unknown exact name: only the catchall class can hold it.
		_ = name
		return []ID{classFor("", tp.Arity())}
	}
	for _, n := range c.names {
		list = append(list, classFor(n, tp.Arity()))
	}
	list = append(list, classFor("", tp.Arity()))
	return list
}

// Classes implements Classifier.
func (c *NameArity) Classes() []ID {
	out := make([]ID, 0, (len(c.names)+1)*(c.maxArit+1))
	for a := 0; a <= c.maxArit; a++ {
		for _, n := range c.names {
			out = append(out, classFor(n, a))
		}
		out = append(out, classFor("", a))
	}
	return out
}

// Single puts every object in one class. It is the degenerate classifier
// used by small examples and by the single-class adaptive analysis of §5
// ("Fix an object class C").
type Single struct{}

var _ Classifier = Single{}

// SingleClassID is the class ID used by the Single classifier.
const SingleClassID ID = "all"

// ClassOf implements Classifier.
func (Single) ClassOf(tuple.Tuple) ID { return SingleClassID }

// SearchList implements Classifier.
func (Single) SearchList(tuple.Template) []ID { return []ID{SingleClassID} }

// Classes implements Classifier.
func (Single) Classes() []ID { return []ID{SingleClassID} }
