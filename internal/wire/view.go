package wire

import (
	"encoding/binary"

	"repro/internal/membership"
)

// records is a validated, read-only run of n encoded records: the bytes
// after the count prefix of a DirectoryMsg's MemberInfo list or of an
// UpdateMsg's update list (which also keeps each update's position).
// Decode checks every record in full, so iteration reads the fixed fields
// straight from raw without re-checking. It views the bytes passed to
// Decode, which must not change while the message is in use.
//
// Records carrying Services or Attrs have those decoded once, at Decode
// time, into tails (in record order), so every receiver of a shared decoded
// message gets the same slices. Plain records cost nothing beyond their
// bytes.
type records struct {
	raw   []byte
	n     int
	tails []infoTail
}

// infoTail is the decoded variable part of one MemberInfo record, with the
// offset in raw just past the record.
type infoTail struct {
	end      int
	services []membership.ServiceDecl
	attrs    []membership.KV
}

// decInfo validates the MemberInfo record at r's offset, start bytes past
// the beginning of the run, keeps its tail if it has one, and returns its
// node ID. left counts the records still to validate (this one included)
// and sizes tails on first use, never beyond the run's own count.
func (v *records) decInfo(r *reader, start, left int) membership.NodeID {
	if r.err == nil && r.off+minInfoLen <= len(r.buf) &&
		binary.LittleEndian.Uint64(r.buf[r.off+infoFixedLen:]) == 0 {
		node := membership.NodeID(binary.LittleEndian.Uint32(r.buf[r.off:]))
		r.off += minInfoLen // a plain record: no services, no attrs
		return node
	}
	node := membership.NodeID(r.i32())
	r.take(infoFixedLen - 4)
	services, attrs := decInfoTail(r)
	if services != nil || attrs != nil {
		if v.tails == nil {
			v.tails = make([]infoTail, 0, left)
		}
		v.tails = append(v.tails, infoTail{end: r.off - start, services: services, attrs: attrs})
	}
	return node
}

// finish keeps the validated run of n records that began at start.
func (v *records) finish(r *reader, start, n int) {
	if r.err == nil {
		v.raw, v.n = r.buf[start:r.off], n
	}
}

func (v *records) enc(w *writer) {
	w.u32(uint32(v.n))
	w.buf = append(w.buf, v.raw...)
}

// info reads the MemberInfo record at off; t indexes the next unread tail.
// It returns the record and the offset just past it.
func (v *records) info(off int, t *int) (membership.MemberInfo, int) {
	b := v.raw[off : off+minInfoLen]
	m := membership.MemberInfo{
		Node:        membership.NodeID(binary.LittleEndian.Uint32(b)),
		Incarnation: binary.LittleEndian.Uint32(b[4:]),
		Version:     binary.LittleEndian.Uint64(b[8:]),
		Beat:        binary.LittleEndian.Uint64(b[16:]),
	}
	if binary.LittleEndian.Uint64(b[infoFixedLen:]) == 0 { // no services, no attrs
		return m, off + minInfoLen
	}
	tl := &v.tails[*t]
	*t++
	m.Services, m.Attrs = tl.services, tl.attrs
	return m, tl.end
}

// InfoIter walks a DirectoryMsg's records in order:
//
//	for it := m.Records(); it.Next(); {
//		info := it.Info()
//	}
//
// The records' Services and Attrs are shared with every other reader of the
// message and must be treated as immutable.
type InfoIter struct {
	v   *records
	i   int // records read
	off int // offset of the next record in v.raw
	t   int // next unread tail
	cur membership.MemberInfo
}

// Next advances to the next record and reports whether there is one.
func (it *InfoIter) Next() bool {
	if it.i == it.v.n {
		return false
	}
	it.cur, it.off = it.v.info(it.off, &it.t)
	it.i++
	return true
}

// Info returns the current record.
func (it *InfoIter) Info() membership.MemberInfo { return it.cur }
