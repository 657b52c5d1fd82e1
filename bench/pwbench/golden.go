package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
)

// goldenKey names a digest in a workload's golden file: the input size
// ("full" or "smoke") and the seed.
func (b *bench) goldenKey() string {
	size := "full"
	if b.smoke {
		size = "smoke"
	}
	return fmt.Sprintf("%s-seed%d", size, b.seed)
}

func (b *bench) goldenPath(workload string) string {
	return filepath.Join(b.root, "bench", "golden", workload+".json")
}

// checkGolden compares the run's output digest with the one recorded in
// bench/golden for this workload, size and seed (seeds without a record
// are checked for determinism only). With -write-golden it records the
// digest instead.
func (b *bench) checkGolden(t *tally) {
	if len(t.digests) == 0 || len(t.problems) > 0 {
		return
	}
	path := b.goldenPath(t.workload)
	golden := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &golden); err != nil {
			t.fail("golden file %s: %v", path, err)
			return
		}
	} else if !os.IsNotExist(err) {
		t.fail("golden file: %v", err)
		return
	}
	key, got := b.goldenKey(), t.digests[0]
	if b.writeGolden {
		golden[key] = got
		data, err := json.MarshalIndent(golden, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			t.fail("writing golden: %v", err)
		}
		fmt.Fprintf(b.out, "  golden %s[%s] = %s\n", filepath.Base(path), key, got)
		return
	}
	want, ok := golden[key]
	if !ok {
		return
	}
	if want != got {
		t.fail("output digest %s does not match golden %s[%s] = %s", got, filepath.Base(path), key, want)
		return
	}
	fmt.Fprintf(b.out, "  golden digest %s matches\n", key)
}

// hasher accumulates an output digest.
type hasher struct{ h hash.Hash }

func newHasher() *hasher { return &hasher{h: sha256.New()} }

// str adds a length-prefixed string, so adjacent fields cannot run into
// each other.
func (h *hasher) str(s string) {
	fmt.Fprintf(h.h, "%d:%s", len(s), s)
}

// file adds a file's path (relative to base) and its bytes.
func (h *hasher) file(base, path string) error {
	rel, err := filepath.Rel(base, path)
	if err != nil {
		return err
	}
	h.str(filepath.ToSlash(rel))
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := io.Copy(h.h, f)
	fmt.Fprintf(h.h, "#%d", n)
	return err
}

func (h *hasher) sum() string {
	return hex.EncodeToString(h.h.Sum(nil))
}
