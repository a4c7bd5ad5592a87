package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"eva"
)

// answer is one query's reference result: its row count and a digest
// of every row, in order.
type answer struct {
	Rows   int    `json:"rows"`
	Digest string `json:"digest"`
}

// digest hashes a result batch: column names, then every datum's
// canonical binary encoding, row by row.
func digest(b *eva.Batch) answer {
	h := sha256.New()
	var buf []byte
	for _, name := range b.Schema().Names() {
		buf = binary.AppendUvarint(buf[:0], uint64(len(name)))
		h.Write(append(buf, name...))
	}
	for r := 0; r < b.Len(); r++ {
		buf = buf[:0]
		for c := range b.Schema() {
			buf = b.At(r, c).AppendBinary(buf)
		}
		h.Write(buf)
	}
	return answer{Rows: b.Len(), Digest: hex.EncodeToString(h.Sum(nil))}
}

// references returns the ModeNoReuse answer to every query, keyed by
// SQL. Answers are cached under cacheDir, keyed by the dataset and
// the query list, so runs that share a seed compute them once.
func references(ds eva.Dataset, queries []string, cacheDir, workDir string) (map[string]answer, error) {
	key := sha256.New()
	fmt.Fprintf(key, "%+v\n", ds)
	for _, q := range queries {
		fmt.Fprintf(key, "%s\n", q)
	}
	path := filepath.Join(cacheDir, hex.EncodeToString(key.Sum(nil))[:24]+".json")
	refs := map[string]answer{}
	data, err := os.ReadFile(path)
	if err == nil && json.Unmarshal(data, &refs) == nil && coversAll(refs, queries) {
		return refs, nil
	}
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("read reference cache: %w", err)
	}
	refs, err = computeReferences(ds, queries, workDir)
	if err != nil {
		return nil, err
	}
	if data, err = json.Marshal(refs); err != nil {
		return nil, fmt.Errorf("encode references: %w", err)
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, fmt.Errorf("reference cache: %w", err)
	}
	// Write then rename, so a concurrent reader never sees half a file.
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return nil, fmt.Errorf("write reference cache: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, fmt.Errorf("write reference cache: %w", err)
	}
	return refs, nil
}

func coversAll(refs map[string]answer, queries []string) bool {
	for _, q := range queries {
		if _, ok := refs[q]; !ok {
			return false
		}
	}
	return true
}

// computeReferences runs every distinct query once in ModeNoReuse.
func computeReferences(ds eva.Dataset, queries []string, workDir string) (map[string]answer, error) {
	dir := filepath.Join(workDir, "noreuse")
	sys, err := eva.Open(eva.Config{Mode: eva.ModeNoReuse, Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("open reference system: %w", err)
	}
	defer os.RemoveAll(dir)
	defer sys.Close()
	if err := sys.LoadDataset("video", ds); err != nil {
		return nil, fmt.Errorf("load reference dataset: %w", err)
	}
	refs := map[string]answer{}
	for _, q := range queries {
		if _, ok := refs[q]; ok {
			continue
		}
		res, err := sys.Exec(q)
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", q, err)
		}
		refs[q] = digest(res.Rows)
	}
	return refs, nil
}

// checkAnswer reports why got is not the reference answer to q, or "".
func checkAnswer(refs map[string]answer, q string, got answer) string {
	want, ok := refs[q]
	switch {
	case !ok:
		return "no reference answer"
	case got.Rows != want.Rows:
		return fmt.Sprintf("%d rows, want %d", got.Rows, want.Rows)
	case got.Digest != "" && got.Digest != want.Digest:
		return "rows differ from the NoReuse answer"
	}
	return ""
}
