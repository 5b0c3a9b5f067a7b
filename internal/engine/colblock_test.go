package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// encodeRows encodes rows through the Store-boundary encoder and checks that
// EncodedSize predicts it byte for byte.
func encodeRows(t *testing.T, rows []Row) []byte {
	t.Helper()
	buf, err := EncodeBlockBytes(rows)
	if err != nil {
		t.Fatalf("strictly typed rows refused encoding: %v", err)
	}
	b, err := rowsBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	if size := EncodedSize(b); size != int64(len(buf)) {
		t.Fatalf("EncodedSize = %d, encoded %d bytes", size, len(buf))
	}
	return buf
}

func TestColumnBlockRoundTrip(t *testing.T) {
	rows := []Row{
		{int64(-1), 2.5, "x"},
		{int64(1 << 40), math.Inf(-1), ""},
		{int64(0), -0.0, "héllo|world"},
	}
	got, err := DecodeBlockFile(encodeRows(t, rows))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, rows)
	}
}

func TestColumnBlockNaNBits(t *testing.T) {
	got, err := DecodeBlockFile(encodeRows(t, []Row{{math.NaN()}}))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got[0][0].(float64)) {
		t.Fatalf("NaN not preserved: %v", got[0][0])
	}
}

func TestColumnBlockEmpty(t *testing.T) {
	got, err := DecodeBlockFile(encodeRows(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("want no rows, got %v", got)
	}
}

func TestColumnBlockRejectsUntypedRows(t *testing.T) {
	cases := [][]Row{
		{{int64(1)}, {2.5}},           // mixed concrete types in a column
		{{int(7)}},                    // plain int has no vector type
		{{int64(1), "a"}, {int64(2)}}, // ragged widths
		{{nil}},                       // nil value
		{{}, {}},                      // rows without columns
	}
	d, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, rows := range cases {
		if _, err := EncodeBlockBytes(rows); err == nil {
			t.Errorf("case %d: untyped rows accepted by column-block encoding", i)
		}
		if err := d.Put("untyped", i, rows, len(cases)); err == nil {
			t.Errorf("case %d: DiskStore.Put accepted untyped rows", i)
		}
	}
}

// TestLegacyCheckpointFormatsRejected pins that FTCB version 2 is the only
// checkpoint format: the gob fallback for mixed-type partitions, legacy
// plain-gob files and version-1 column blocks are all refused. Checkpoints
// are intermediates of one query, so nothing ever needs to read them across
// versions.
func TestLegacyCheckpointFormatsRejected(t *testing.T) {
	var gobRows bytes.Buffer
	if err := gob.NewEncoder(&gobRows).Encode([]Row{{int64(3), "legacy"}}); err != nil {
		t.Fatal(err)
	}
	v1 := []byte(colBlockMagic)
	v1 = append(v1, 1)               // version 1: no encoding bytes
	v1 = binary.AppendUvarint(v1, 1) // ncols
	v1 = binary.AppendUvarint(v1, 1) // nrows
	v1 = append(v1, byte(TypeInt))   // column type
	v1 = binary.AppendVarint(v1, -7) // the value
	for name, data := range map[string][]byte{
		"gob-fallback":     append([]byte("FTGB"), gobRows.Bytes()...),
		"legacy-plain-gob": gobRows.Bytes(),
		"ftcb-version-1":   v1,
	} {
		if rows, err := DecodeBlockFile(data); err == nil {
			t.Errorf("%s: decoded as %v, want an error", name, rows)
		}
		dir := t.TempDir()
		d, err := NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "old.part0.ftcb"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if rows, ok := d.Get("old", 0); ok {
			t.Errorf("%s: DiskStore.Get restored %v, want a miss", name, rows)
		}
	}
}

// hostileBlock claims 48 columns of 1.8 million rows in a dozen bytes.
const hostileBlock = "FTCB\x020\xe5\xffm0\x01x"

// TestDecodeBlockFileBoundsHostileInput checks the decoder measures a
// block's claimed size against its actual length before allocating.
func TestDecodeBlockFileBoundsHostileInput(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBlockFile([]byte(hostileBlock))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile block decoded without error")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting the hostile block allocated %d bytes, want < 1 MB", alloc)
	}
}

// FuzzDecodeBlockFile feeds arbitrary bytes to the checkpoint decoder: it
// must never panic, never return more values than the input has bytes, and
// whatever it accepts must re-encode and decode to the same rows.
func FuzzDecodeBlockFile(f *testing.F) {
	f.Add([]byte(hostileBlock))
	f.Add([]byte{})
	f.Add([]byte("FTCB\x02\x00\x00"))
	for _, rows := range [][]Row{
		{{int64(1), 2.5, "a"}, {int64(2), -1.0, "a"}},
		{{int64(100)}, {int64(101)}, {int64(102)}},
	} {
		buf, err := EncodeBlockBytes(rows)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := DecodeBlockFile(data)
		if err != nil {
			return
		}
		if len(rows) > 0 && len(rows)*len(rows[0]) > len(data) {
			t.Fatalf("%d rows of %d values decoded from %d bytes", len(rows), len(rows[0]), len(data))
		}
		buf, err := EncodeBlockBytes(rows)
		if err != nil {
			t.Fatalf("decoded rows do not re-encode: %v", err)
		}
		again, err := DecodeBlockFile(buf)
		if err != nil {
			t.Fatalf("re-encoded block does not decode: %v", err)
		}
		if !equalRowsNaN(again, rows) {
			t.Fatal("decode(encode(rows)) != rows")
		}
	})
}

func TestDiskStoreGCsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put("op", 0, []Row{{int64(1)}}, 1); err != nil {
		t.Fatal(err)
	}

	// Plant an orphan as a crash mid-Put would leave it: a "put-*" temp file
	// that never got renamed into place.
	orphan := filepath.Join(dir, "put-123456")
	if err := os.WriteFile(orphan, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the directory removes the orphan but keeps data.
	d2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned temp file not garbage-collected (stat err: %v)", err)
	}
	if rows, ok := d2.Get("op", 0); !ok || len(rows) != 1 {
		t.Error("orphan GC damaged committed partitions")
	}
}

// TestColumnBlockCompressionRoundTrip drives every per-column encoding the
// v2 format can choose — plain and delta ints (including wrap-around at the
// int64 extremes), plain floats with NaN/±Inf/-0, plain and dictionary
// strings — and checks the property the checkpoint-bytes metric depends on:
// EncodedSize predicts the encoder byte-for-byte, and decode(encode(x)) ==
// x.
func TestColumnBlockCompressionRoundTrip(t *testing.T) {
	cases := map[string][]Row{
		"sorted-ints-delta": func() []Row {
			rows := make([]Row, 500)
			for i := range rows {
				rows[i] = Row{int64(1_000_000 + i*3)}
			}
			return rows
		}(),
		"random-ints-plain": func() []Row {
			rows := make([]Row, 200)
			v := int64(982451653)
			for i := range rows {
				v = v*6364136223846793005 + 1442695040888963407
				rows[i] = Row{v}
			}
			return rows
		}(),
		"int64-extremes": {
			{int64(math.MaxInt64)}, {int64(math.MinInt64)},
			{int64(math.MaxInt64)}, {int64(0)}, {int64(math.MinInt64)},
		},
		"floats-special": {
			{math.NaN()}, {math.Inf(1)}, {math.Inf(-1)},
			{math.Copysign(0, -1)}, {1e308}, {5e-324},
		},
		"low-card-strings-dict": func() []Row {
			rows := make([]Row, 300)
			status := []string{"PENDING", "SHIPPED", "RETURNED"}
			for i := range rows {
				rows[i] = Row{status[i%len(status)]}
			}
			return rows
		}(),
		"unique-strings-plain": func() []Row {
			rows := make([]Row, 50)
			for i := range rows {
				rows[i] = Row{string(rune('a'+i%26)) + "-unique-suffix-0123456789"}
			}
			return rows
		}(),
		"mixed-width": func() []Row {
			rows := make([]Row, 256)
			region := []string{"ASIA", "EUROPE"}
			for i := range rows {
				rows[i] = Row{int64(i), float64(i) * 1.5, region[i%2]}
			}
			return rows
		}(),
	}
	for name, rows := range cases {
		got, err := DecodeBlockFile(encodeRows(t, rows))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := rows
		if !equalRowsNaN(got, want) {
			t.Errorf("%s: round trip mismatch", name)
		}
	}
}

// equalRowsNaN is reflect.DeepEqual with NaN == NaN for float values.
func equalRowsNaN(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			af, aok := a[i][c].(float64)
			bf, bok := b[i][c].(float64)
			if aok && bok && math.IsNaN(af) && math.IsNaN(bf) {
				continue
			}
			if !reflect.DeepEqual(a[i][c], b[i][c]) {
				return false
			}
		}
	}
	return true
}

// TestColumnBlockCompressionShrinks asserts the encoder actually picks the
// compressed form where it should: near-sequential ints beat plain varints,
// low-cardinality strings beat repeated literals.
func TestColumnBlockCompressionShrinks(t *testing.T) {
	ints := make([]int64, 1000)
	strs := make([]string, 1000)
	for i := range ints {
		ints[i] = int64(5_000_000_000 + i)
		strs[i] = []string{"AUTOMOBILE", "FURNITURE"}[i%2]
	}
	plain, delta := intColSizes(ints)
	if delta >= plain {
		t.Fatalf("sequential ints: delta %d not smaller than plain %d", delta, plain)
	}
	splain, dict := stringColSizes(strs)
	if dict >= splain {
		t.Fatalf("low-cardinality strings: dict %d not smaller than plain %d", dict, splain)
	}
	// And the whole-block size reflects the choice.
	b, err := NewBatchFromCols(Schema{{Type: TypeInt}, {Type: TypeString}},
		[]Vector{{Type: TypeInt, Ints: ints}, {Type: TypeString, Strings: strs}})
	if err != nil {
		t.Fatal(err)
	}
	header := int64(len(colBlockMagic)) + 1 + uvarintLen(2) + uvarintLen(1000) + 2*2
	if size := EncodedSize(b); size != header+delta+dict {
		t.Fatalf("block size %d does not reflect compressed choices (want %d)", size, header+delta+dict)
	}
}

// TestEncodeBlockBytesMatchesStoreFiles pins the invariant the async
// checkpoint writer's EncodedStore fast path relies on: the bytes it encodes
// straight from a batch are identical to what a direct Put of the same rows
// writes.
func TestEncodeBlockBytesMatchesStoreFiles(t *testing.T) {
	schema := Schema{{Name: "k", Type: TypeInt}, {Name: "s", Type: TypeString}}
	rows := []Row{{int64(1), "x"}, {int64(2), "y"}, {int64(3), "x"}}
	b, err := RowsToBatch(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	// A selection vector must encode as the selected rows only.
	b.Sel = []int32{0, 2}
	rows = []Row{rows[0], rows[2]}
	data, err := EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if size := EncodedSize(b); size != int64(len(data)) {
		t.Errorf("EncodedSize = %d, EncodeBatch wrote %d bytes", size, len(data))
	}
	dir := t.TempDir()
	d1, err := NewDiskStore(filepath.Join(dir, "put"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put("op", 0, rows, 1); err != nil {
		t.Fatal(err)
	}
	d2, err := NewDiskStore(filepath.Join(dir, "enc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.PutEncoded("op", 0, data, 1); err != nil {
		t.Fatal(err)
	}
	f1, err := os.ReadFile(filepath.Join(dir, "put", "op.part0.ftcb"))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := os.ReadFile(filepath.Join(dir, "enc", "op.part0.ftcb"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f1, f2) {
		t.Errorf("PutEncoded file differs from Put file (%d vs %d bytes)", len(f2), len(f1))
	}
	got, ok := d2.Get("op", 0)
	if !ok || !reflect.DeepEqual(got, rows) {
		t.Errorf("PutEncoded read-back mismatch: ok=%v got=%v", ok, got)
	}
}
