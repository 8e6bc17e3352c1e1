// Package core implements the PASO memory engine on top of the
// virtual-synchrony layer: write groups and read groups per object class
// (paper §4.1), the memory-server command handlers (§4.2), and the macro
// expansions of the insert, read, and read&del primitives (§4.3 and
// Appendix A), including the blocking variants (read markers refreshed by
// a slow poll).
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"paso/internal/class"
	"paso/internal/tuple"
)

// cmdKind discriminates memory-server commands carried in gcasts.
type cmdKind uint8

const (
	cmdStore  cmdKind = iota + 1 // store(o): insert an object
	cmdRead                      // mem-read(sc, C): return a match or fail
	cmdRemove                    // remove(sc, C): delete + return oldest match
	cmdMark                      // place a read marker for a blocked read
	cmdSwap                      // atomic remove(sc)+store(o) (tuple swap)
)

// command is a decoded memory-server command.
type command struct {
	kind  cmdKind
	class class.ID
	obj   tuple.Tuple    // cmdStore / cmdSwap (the replacement)
	tpl   tuple.Template // cmdRead / cmdRemove / cmdMark / cmdSwap
}

// errBadCommand reports an undecodable command payload.
var errBadCommand = errors.New("core: bad command encoding")

// encodeCommand serializes a command: kind, class, then the object or
// template. Sizes feed the α+β cost model, so the encoding is the same
// compact binary as the tuple codec. The buffer is sized once from Size(),
// so an encode is one allocation and copies each byte once.
func encodeCommand(c *command) []byte {
	n := 1 + 2 + len(c.class)
	switch c.kind {
	case cmdStore:
		n += c.obj.Size()
	case cmdRead, cmdRemove, cmdMark:
		n += c.tpl.Size()
	case cmdSwap:
		n += 4 + c.tpl.Size() + c.obj.Size()
	}
	out := make([]byte, 0, n)
	out = append(out, byte(c.kind))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(c.class)))
	out = append(out, c.class...)
	switch c.kind {
	case cmdStore:
		out = tuple.AppendTuple(out, c.obj)
	case cmdRead, cmdRemove, cmdMark:
		out = tuple.AppendTemplate(out, c.tpl)
	case cmdSwap:
		at := len(out)
		out = tuple.AppendTemplate(append(out, 0, 0, 0, 0), c.tpl)
		binary.LittleEndian.PutUint32(out[at:], uint32(len(out)-at-4))
		out = tuple.AppendTuple(out, c.obj)
	}
	return out
}

// decodeCommand parses a command payload, copying string data out of b.
func decodeCommand(b []byte) (*command, error) {
	c := &command{}
	if err := c.decode(b, false); err != nil {
		return nil, err
	}
	return c, nil
}

// decode parses a command payload into c. With alias set, the class and
// every string/bytes field of the object or template reference b directly
// instead of copying: the delivery path uses this on transport receive
// frames, which are immutable and never reused, so a stored tuple's
// payload keeps aliasing the frame the socket produced (zero copies
// between socket and store; see DESIGN.md, "Delivery buffer ownership").
func (c *command) decode(b []byte, alias bool) error {
	if len(b) < 3 {
		return errBadCommand
	}
	c.kind = cmdKind(b[0])
	n := int(binary.LittleEndian.Uint16(b[1:3]))
	if len(b) < 3+n {
		return errBadCommand
	}
	if alias && n > 0 {
		c.class = class.ID(unsafe.String(&b[3], n))
	} else {
		c.class = class.ID(b[3 : 3+n])
	}
	body := b[3+n:]
	decTuple, decTpl := tuple.DecodeTuple, tuple.DecodeTemplate
	if alias {
		decTuple, decTpl = tuple.DecodeTupleAlias, tuple.DecodeTemplateAlias
	}
	var err error
	switch c.kind {
	case cmdStore:
		c.obj, err = decTuple(body)
	case cmdRead, cmdRemove, cmdMark:
		c.tpl, err = decTpl(body)
	case cmdSwap:
		if len(body) < 4 {
			return errBadCommand
		}
		tlen := int(binary.LittleEndian.Uint32(body))
		if len(body) < 4+tlen {
			return errBadCommand
		}
		c.tpl, err = decTpl(body[4 : 4+tlen])
		if err == nil {
			c.obj, err = decTuple(body[4+tlen:])
		}
	default:
		return fmt.Errorf("%w: kind %d", errBadCommand, b[0])
	}
	if err != nil {
		return fmt.Errorf("%w: %v", errBadCommand, err)
	}
	return nil
}

// response is a memory server's answer to a command.
type response struct {
	ok     bool
	probes uint32 // data-structure probes spent (work accounting)
	obj    tuple.Tuple
}

// encodeResponse serializes a response into one buffer sized from Size().
func encodeResponse(r *response) []byte {
	n := 5
	if r.ok {
		n += r.obj.Size()
	}
	out := make([]byte, 1, n)
	if r.ok {
		out[0] = 1
	}
	out = binary.LittleEndian.AppendUint32(out, r.probes)
	if r.ok {
		out = tuple.AppendTuple(out, r.obj)
	}
	return out
}

// decodeResponse parses a response payload. The tuple's string and bytes
// fields alias b: a reply payload is a transport receive frame or a
// member's encodeResponse slice, both immutable once handed over (DESIGN.md,
// "Delivery buffer ownership"), so a caller's tuple pins its reply frame.
func decodeResponse(b []byte) (response, error) {
	if len(b) < 5 {
		return response{}, errBadCommand
	}
	r := response{ok: b[0] == 1, probes: binary.LittleEndian.Uint32(b[1:5])}
	if r.ok {
		obj, err := tuple.DecodeTupleAlias(b[5:])
		if err != nil {
			return response{}, fmt.Errorf("decode response: %w", err)
		}
		r.obj = obj
	}
	return r, nil
}

// wgName and rgName build (and allocate) the vsync group names for a class's
// write and read groups; primitives use the interned Machine.groupsOf.
func wgName(cls class.ID) string { return "wg/" + string(cls) }
func rgName(cls class.ID) string { return "rg/" + string(cls) }

type groupNames struct{ wg, rg string } // one class's interned group names

// parseGroup splits a group name into kind ("wg" or "rg") and class.
func parseGroup(group string) (kind string, cls class.ID, ok bool) {
	if len(group) < 4 || group[2] != '/' {
		return "", "", false
	}
	kind = group[:2]
	if kind != "wg" && kind != "rg" {
		return "", "", false
	}
	return kind, class.ID(group[3:]), true
}
