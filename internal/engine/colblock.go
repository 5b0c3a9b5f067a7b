package engine

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Column-block format (FTCB version 2): the serialized form of a
// materialized partition. Values are stored column-major as typed vectors
// (no per-value type tags, varint integers, raw float bits), with one
// encoding byte per column and two lightweight compressions chosen per
// column whenever they are strictly smaller than the plain form — varint
// delta for integers (sorted keys and near-sequential ids shrink to a byte
// or two per value) and a first-appearance dictionary for low-cardinality
// strings:
//
//	"FTCB" | version(1) | ncols uvarint | nrows uvarint |
//	  per column: type(1) | enc(1) |
//	    TypeInt    enc 0 (plain): nrows signed varints
//	    TypeInt    enc 1 (delta): first value, then nrows-1 wrapping deltas,
//	                              all signed varints
//	    TypeFloat  enc 0 (plain): nrows fixed little-endian float64 bits
//	    TypeString enc 0 (plain): nrows of (uvarint length | bytes)
//	    TypeString enc 1 (dict):  ndict uvarint | ndict entries of
//	                              (uvarint length | bytes), in first-appearance
//	                              order | nrows uvarint dictionary indexes
//
// An empty partition has no columns. Checkpoints are intermediates of one
// query, never read across versions, so this is the only format: rows that
// are not strictly typed cannot be encoded, and nothing else decodes.
const (
	colBlockMagic   = "FTCB"
	colBlockVersion = 2

	colEncPlain = 0
	colEncDelta = 1 // TypeInt only
	colEncDict  = 1 // TypeString only
)

func uvarintLen(x uint64) int64 {
	n := int64(1)
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func varintLen(x int64) int64 {
	return uvarintLen(uint64(x)<<1 ^ uint64(x>>63))
}

// intColSizes returns the exact payload sizes of an int column under the
// plain and delta encodings.
func intColSizes(v []int64) (plain, delta int64) {
	prev := int64(0)
	for i, x := range v {
		plain += varintLen(x)
		if i == 0 {
			delta += varintLen(x)
		} else {
			// Two's-complement wrapping subtraction: the decoder's wrapping
			// addition round-trips every pair, including extreme values.
			delta += varintLen(x - prev)
		}
		prev = x
	}
	return plain, delta
}

// stringColSizes returns the exact payload sizes of a string column under
// the plain and dictionary encodings.
func stringColSizes(v []string) (plain, dict int64) {
	seen := make(map[string]uint64)
	var entries, idxBytes int64
	for _, s := range v {
		plain += uvarintLen(uint64(len(s))) + int64(len(s))
		idx, ok := seen[s]
		if !ok {
			idx = uint64(len(seen))
			seen[s] = idx
			entries += uvarintLen(uint64(len(s))) + int64(len(s))
		}
		idxBytes += uvarintLen(idx)
	}
	dict = uvarintLen(uint64(len(seen))) + entries + idxBytes
	return plain, dict
}

// blockCols returns the dense columns a block of b stores: none for an
// empty batch, b's own vectors when it has no selection, gathered copies
// otherwise.
func blockCols(b *Batch) []Vector {
	if b.Len() == 0 {
		return nil
	}
	if b.Sel == nil {
		return b.Cols
	}
	out := make([]Vector, len(b.Cols))
	for i := range b.Cols {
		out[i] = b.Cols[i].gather(b.Sel)
	}
	return out
}

// EncodedSize returns the exact number of bytes EncodeBatch produces for b —
// including its per-column encoding choices — without building the
// encoding. The checkpoint-bytes metrics use it, so it must stay byte-exact
// against the encoder.
func EncodedSize(b *Batch) int64 {
	cols := blockCols(b)
	n := b.Len()
	size := int64(len(colBlockMagic)) + 1 + uvarintLen(uint64(len(cols))) + uvarintLen(uint64(n))
	for i := range cols {
		size += 2 // type byte + encoding byte
		switch v := &cols[i]; v.Type {
		case TypeInt:
			plain, delta := intColSizes(v.Ints)
			size += min(plain, delta)
		case TypeFloat:
			size += int64(8 * n)
		default:
			plain, dict := stringColSizes(v.Strings)
			size += min(plain, dict)
		}
	}
	return size
}

// EncodeBatch serializes the logical rows of b as a column block.
func EncodeBatch(b *Batch) ([]byte, error) {
	cols := blockCols(b)
	n := b.Len()
	if n > 0 && len(cols) == 0 {
		return nil, fmt.Errorf("engine: column block: %d rows without columns", n)
	}
	buf := make([]byte, 0, EncodedSize(b))
	buf = append(buf, colBlockMagic...)
	buf = append(buf, colBlockVersion)
	buf = binary.AppendUvarint(buf, uint64(len(cols)))
	buf = binary.AppendUvarint(buf, uint64(n))
	for i := range cols {
		v := &cols[i]
		buf = append(buf, byte(v.Type))
		switch v.Type {
		case TypeInt:
			// Same tie rule as EncodedSize: delta only when strictly
			// smaller, so the size prediction stays byte-exact.
			if plain, delta := intColSizes(v.Ints); delta < plain {
				buf = append(buf, colEncDelta)
				prev := int64(0)
				for _, x := range v.Ints {
					buf = binary.AppendVarint(buf, x-prev)
					prev = x
				}
			} else {
				buf = append(buf, colEncPlain)
				for _, x := range v.Ints {
					buf = binary.AppendVarint(buf, x)
				}
			}
		case TypeFloat:
			buf = append(buf, colEncPlain)
			for _, x := range v.Floats {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
			}
		default:
			if plain, dict := stringColSizes(v.Strings); dict < plain {
				buf = append(buf, colEncDict)
				seen := make(map[string]uint64)
				var entries []string
				for _, s := range v.Strings {
					if _, ok := seen[s]; !ok {
						seen[s] = uint64(len(entries))
						entries = append(entries, s)
					}
				}
				buf = binary.AppendUvarint(buf, uint64(len(entries)))
				for _, s := range entries {
					buf = binary.AppendUvarint(buf, uint64(len(s)))
					buf = append(buf, s...)
				}
				for _, s := range v.Strings {
					buf = binary.AppendUvarint(buf, seen[s])
				}
			} else {
				buf = append(buf, colEncPlain)
				for _, s := range v.Strings {
					buf = binary.AppendUvarint(buf, uint64(len(s)))
					buf = append(buf, s...)
				}
			}
		}
	}
	return buf, nil
}

// EncodeBlockBytes serializes one partition of boxed rows (the Store
// interface's form) as a column block; rows that are not strictly typed are
// an error.
func EncodeBlockBytes(rows []Row) ([]byte, error) {
	b, err := rowsBatch(rows)
	if err != nil {
		return nil, err
	}
	return EncodeBatch(b)
}

// rowsBatch converts boxed rows to a batch whose column types come from the
// first row; every value must be an int64, float64 or string of its
// column's type, and every row must have the same width.
func rowsBatch(rows []Row) (*Batch, error) {
	var schema Schema
	if len(rows) > 0 {
		schema = make(Schema, len(rows[0]))
		for c, v := range rows[0] {
			switch v.(type) {
			case int64:
				schema[c].Type = TypeInt
			case float64:
				schema[c].Type = TypeFloat
			case string:
				schema[c].Type = TypeString
			default:
				return nil, fmt.Errorf("engine: column block: column %d: %T has no column type", c, v)
			}
		}
	}
	b, err := RowsToBatch(schema, rows)
	if err != nil {
		return nil, fmt.Errorf("engine: column block: %w", err)
	}
	return b, nil
}

// DecodeBlockFile decodes a stored partition to boxed rows (nil for an
// empty partition).
func DecodeBlockFile(data []byte) ([]Row, error) {
	b, err := decodeBatch(data)
	if err != nil {
		return nil, err
	}
	return b.ToRows(), nil
}

// decodeBatch parses a column block into a dense batch (nil for an empty
// partition; columns are unnamed). Every count is checked against the bytes
// that remain before anything is allocated — a column costs at least two
// header bytes plus one byte per value — so hostile input cannot make the
// decoder allocate more than a small multiple of its own length.
func decodeBatch(data []byte) (*Batch, error) {
	if len(data) < len(colBlockMagic)+1 || string(data[:len(colBlockMagic)]) != colBlockMagic {
		return nil, fmt.Errorf("engine: not a column block")
	}
	if v := data[len(colBlockMagic)]; v != colBlockVersion {
		return nil, fmt.Errorf("engine: column block version %d unsupported", v)
	}
	r := &blockReader{data: data, pos: len(colBlockMagic) + 1}
	ncols, nrows := r.uvarint(), r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if left := r.left(); (ncols == 0 && nrows > 0) || nrows > left || ncols > left/(nrows+2) {
		return nil, fmt.Errorf("engine: column block header (%d cols, %d rows) exceeds its %d remaining bytes", ncols, nrows, left)
	}
	if nrows == 0 {
		return nil, nil
	}
	schema := make(Schema, ncols)
	cols := make([]Vector, ncols)
	for c := range cols {
		t, enc := ColType(r.byte()), r.byte()
		if r.err != nil {
			return nil, r.err
		}
		if nrows > r.left() {
			return nil, fmt.Errorf("engine: column block column %d: %d rows exceed %d remaining bytes", c, nrows, r.left())
		}
		schema[c].Type = t
		v := &cols[c]
		v.Type = t
		switch {
		case t == TypeInt && (enc == colEncPlain || enc == colEncDelta):
			v.Ints = make([]int64, nrows)
			prev := int64(0)
			for i := range v.Ints {
				x := r.varint()
				if enc == colEncDelta {
					x += prev // wrapping addition mirrors the encoder
				}
				v.Ints[i], prev = x, x
			}
		case t == TypeFloat && enc == colEncPlain:
			if 8*nrows > r.left() {
				return nil, fmt.Errorf("engine: column block column %d: %d floats exceed %d remaining bytes", c, nrows, r.left())
			}
			v.Floats = make([]float64, nrows)
			for i := range v.Floats {
				v.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.bytes(8)))
			}
		case t == TypeString && enc == colEncPlain:
			v.Strings = make([]string, nrows)
			for i := range v.Strings {
				v.Strings[i] = string(r.bytes(r.uvarint()))
			}
		case t == TypeString && enc == colEncDict:
			ndict := r.uvarint()
			if ndict > r.left() {
				return nil, fmt.Errorf("engine: column block column %d: dictionary of %d exceeds %d remaining bytes", c, ndict, r.left())
			}
			dict := make([]string, ndict)
			for d := range dict {
				dict[d] = string(r.bytes(r.uvarint()))
			}
			v.Strings = make([]string, nrows)
			for i := range v.Strings {
				if idx := r.uvarint(); idx < ndict {
					v.Strings[i] = dict[idx]
				} else if r.err == nil {
					return nil, fmt.Errorf("engine: column block dictionary index %d out of range", idx)
				}
			}
		default:
			return nil, fmt.Errorf("engine: column block column %d: type %d with encoding %d unsupported", c, t, enc)
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	return &Batch{Schema: schema, Cols: cols, nrows: int(nrows)}, nil
}

// blockReader reads a column block's primitives. The first out-of-bounds
// read latches err; later reads return zero values without advancing.
type blockReader struct {
	data []byte
	pos  int
	err  error
}

func (r *blockReader) left() uint64 { return uint64(len(r.data) - r.pos) }

func (r *blockReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("engine: column block truncated or malformed at byte %d", r.pos)
	}
	r.pos = len(r.data)
}

func (r *blockReader) byte() byte {
	if r.left() < 1 {
		r.fail()
		return 0
	}
	r.pos++
	return r.data[r.pos-1]
}

func (r *blockReader) uvarint() uint64 {
	x, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return x
}

func (r *blockReader) varint() int64 {
	x, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return x
}

// bytes returns the next n bytes, sharing the input.
func (r *blockReader) bytes(n uint64) []byte {
	if n > r.left() {
		r.fail()
		return nil
	}
	r.pos += int(n)
	return r.data[r.pos-int(n) : r.pos]
}
