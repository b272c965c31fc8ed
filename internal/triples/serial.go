package triples

import (
	"fmt"

	"ringrpq/internal/serial"
)

// Encode writes the dictionary's names in id order.
func (d *Dict) Encode(w *serial.Writer) {
	w.Magic("dic1")
	names := d.NamesView()
	w.Int(len(names))
	for _, n := range names {
		w.String(n)
	}
}

// DecodeDict reads a dictionary written by Encode. A repeated name is
// corrupt (ids are positions, and interning it again would shift every
// later one).
func DecodeDict(r *serial.Reader) *Dict {
	r.Magic("dic1")
	n := r.Int()
	d := NewDict()
	for i := 0; i < n; i++ {
		name := r.String()
		if r.Err() != nil {
			return nil
		}
		if d.Intern(name) != uint32(i) {
			r.Fail(fmt.Errorf("triples: name %q repeated in dictionary", name))
			return nil
		}
	}
	return d
}

// EncodeMeta writes the graph's dictionaries and predicate count; the
// triple list itself is not stored (the ring reconstructs triples when
// needed), so a decoded graph serves only name/id resolution.
func (g *Graph) EncodeMeta(w *serial.Writer) {
	w.Magic("gra1")
	g.Nodes.Encode(w)
	g.Preds.Encode(w)
	w.Uvarint(uint64(g.NumPreds))
}

// DecodeMeta reads graph metadata written by EncodeMeta. The returned
// graph has no triple list.
func DecodeMeta(r *serial.Reader) *Graph {
	r.Magic("gra1")
	g := &Graph{}
	g.Nodes = DecodeDict(r)
	g.Preds = DecodeDict(r)
	g.NumPreds = uint32(r.Uvarint())
	if r.Err() != nil {
		return nil
	}
	return g
}
