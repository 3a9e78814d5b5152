package shard_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dwqa/internal/shard"
	"dwqa/internal/store"
)

// TestDetectShards: a cluster directory reports the shard count it was
// created with, a fresh or single-node directory reports 0, and a
// hand-edited layout with a numbering gap, or a lone shard-000, is an
// error rather than a count that would silently drop data.
func TestDetectShards(t *testing.T) {
	root := t.TempDir()

	n, err := shard.DetectShards(store.OS(), root)
	if err != nil || n != 0 {
		t.Fatalf("empty dir: got %d, %v; want 0, nil", n, err)
	}

	for i := 0; i < 3; i++ {
		if err := os.MkdirAll(shard.ShardDir(root, i, 3), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	n, err = shard.DetectShards(store.OS(), root)
	if err != nil || n != 3 {
		t.Fatalf("3-shard dir: got %d, %v; want 3, nil", n, err)
	}

	// Unrelated entries (a single-node snapshot, a stray file) are not
	// shard directories.
	if err := os.WriteFile(filepath.Join(root, "snapshot-000001.bin"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err = shard.DetectShards(store.OS(), root)
	if err != nil || n != 3 {
		t.Fatalf("3-shard dir with stray file: got %d, %v; want 3, nil", n, err)
	}

	if err := os.RemoveAll(shard.ShardDir(root, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.DetectShards(store.OS(), root); err == nil {
		t.Fatal("gap in shard numbering: want an error, got nil")
	}

	// A lone shard-000 is the layout earlier 1-shard clusters wrote; a
	// 1-shard cluster now keeps its store in the root, so the directory
	// is refused with a message that says what to do.
	if got := shard.ShardDir(root, 0, 1); got != root {
		t.Fatalf("1-shard store dir = %s, want the root %s", got, root)
	}
	if err := os.RemoveAll(shard.ShardDir(root, 2, 3)); err != nil {
		t.Fatal(err)
	}
	_, err = shard.DetectShards(store.OS(), root)
	if err == nil || !strings.Contains(err.Error(), "shard-000") || !strings.Contains(err.Error(), "move") {
		t.Fatalf("lone shard-000: err = %v, want an error saying to move shard-000 into the root", err)
	}
}
