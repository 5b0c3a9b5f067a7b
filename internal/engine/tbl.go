package engine

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteTBL serializes a table in dbgen's .tbl format: one row per line,
// '|'-separated values with a trailing '|', read straight from the table's
// columns. Replicated tables emit each row once.
func WriteTBL(t *Table, w io.Writer) error {
	bw := bufio.NewWriter(w)
	parts := t.Parts
	if t.Replicated {
		parts = t.Parts[:1]
	}
	var line []byte
	for _, b := range parts {
		for i := 0; i < b.Len(); i++ {
			line = line[:0]
			for c := range b.Cols {
				if c > 0 {
					line = append(line, '|')
				}
				switch v := &b.Cols[c]; v.Type {
				case TypeInt:
					line = strconv.AppendInt(line, v.Ints[i], 10)
				case TypeFloat:
					line = strconv.AppendFloat(line, v.Floats[i], 'g', -1, 64)
				default:
					if strings.ContainsAny(v.Strings[i], "|\n") {
						return fmt.Errorf("engine: string value %q cannot be written to .tbl", v.Strings[i])
					}
					line = append(line, v.Strings[i]...)
				}
			}
			line = append(line, "|\n"...)
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadTBL parses dbgen .tbl data into a partitioned table. keyCol selects
// the hash-partitioning column (-1 = round robin); replicated copies the
// full data to every partition.
func ReadTBL(name string, schema Schema, r io.Reader, parts, keyCol int, replicated bool) (*Table, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	cols := make([]Vector, len(schema))
	for i, c := range schema {
		if c.Type != TypeInt && c.Type != TypeFloat && c.Type != TypeString {
			return nil, fmt.Errorf("engine: %s.tbl: unsupported column type %v", name, c.Type)
		}
		cols[i].Type = c.Type
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		line = strings.TrimSuffix(line, "|")
		fields := strings.Split(line, "|")
		if len(fields) < len(schema) {
			return nil, fmt.Errorf("engine: %s.tbl line %d has %d fields, schema needs %d",
				name, lineNo, len(fields), len(schema))
		}
		for i, c := range schema {
			f := fields[i]
			v := &cols[i]
			switch c.Type {
			case TypeInt:
				x, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("engine: %s.tbl line %d col %s: %w", name, lineNo, c.Name, err)
				}
				v.Ints = append(v.Ints, x)
			case TypeFloat:
				x, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fmt.Errorf("engine: %s.tbl line %d col %s: %w", name, lineNo, c.Name, err)
				}
				v.Floats = append(v.Floats, x)
			default:
				v.Strings = append(v.Strings, f)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if replicated {
		return NewReplicatedTableFromColumns(name, schema, cols, parts)
	}
	return NewTableFromColumns(name, schema, cols, parts, keyCol)
}
