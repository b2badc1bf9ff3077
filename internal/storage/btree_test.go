package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"accdb/internal/spi"
)

func intKey(i int) spi.Key { return spi.EncodeKey(spi.I64(int64(i))) }

func TestBTreeBasicSetGetDelete(t *testing.T) {
	bt := NewBTree[spi.Key]()
	if _, ok := bt.Get(intKey(1)); ok {
		t.Fatal("empty tree returned a value")
	}
	if !bt.Set(intKey(1), "a") {
		t.Fatal("first Set should report insert")
	}
	if bt.Set(intKey(1), "b") {
		t.Fatal("second Set should report replace")
	}
	if v, ok := bt.Get(intKey(1)); !ok || v != "b" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if !bt.Delete(intKey(1)) {
		t.Fatal("Delete should report present")
	}
	if bt.Delete(intKey(1)) {
		t.Fatal("second Delete should report absent")
	}
	if bt.Len() != 0 {
		t.Fatalf("Len = %d", bt.Len())
	}
}

func TestBTreeAscendOrderAndBounds(t *testing.T) {
	bt := NewBTreeDegree[spi.Key](3) // small degree forces deep trees
	const n = 500
	perm := rand.New(rand.NewSource(2)).Perm(n)
	for _, i := range perm {
		bt.Set(intKey(i), spi.Key(fmt.Sprint(i)))
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	var got []spi.Key
	bt.Ascend("", "", func(k, _ spi.Key) bool {
		got = append(got, k)
		return true
	})
	if len(got) != n {
		t.Fatalf("full scan returned %d keys", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("scan out of order")
	}
	// Bounded scan [100, 200).
	count := 0
	bt.Ascend(intKey(100), intKey(200), func(k, _ spi.Key) bool {
		count++
		return true
	})
	if count != 100 {
		t.Fatalf("bounded scan returned %d keys, want 100", count)
	}
	// Early stop.
	count = 0
	bt.Ascend("", "", func(spi.Key, spi.Key) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestBTreeAscendPrefix(t *testing.T) {
	bt := NewBTree[spi.Key]()
	for d := 1; d <= 3; d++ {
		for o := 1; o <= 50; o++ {
			bt.Set(spi.EncodeKey(spi.I64(int64(d)), spi.I64(int64(o))), "v")
		}
	}
	count := 0
	prefix := spi.EncodeKey(spi.I64(2)) // a prefix scan starts at prefix and stops past it
	bt.Ascend(prefix, "", func(k, _ spi.Key) bool {
		if !strings.HasPrefix(string(k), string(prefix)) {
			return false
		}
		count++
		return true
	})
	if count != 50 {
		t.Fatalf("prefix scan found %d, want 50", count)
	}
}

func TestBTreeDeleteRebalancing(t *testing.T) {
	for _, degree := range []int{2, 3, 4, 16} {
		bt := NewBTreeDegree[spi.Key](degree)
		const n = 800
		r := rand.New(rand.NewSource(int64(degree)))
		perm := r.Perm(n)
		for _, i := range perm {
			bt.Set(intKey(i), "v")
		}
		// Delete a random 2/3 and verify invariants at intervals.
		del := r.Perm(n)[:2*n/3]
		for j, i := range del {
			if !bt.Delete(intKey(i)) {
				t.Fatalf("degree %d: lost key %d", degree, i)
			}
			if j%97 == 0 {
				if err := bt.checkInvariants(); err != nil {
					t.Fatalf("degree %d after %d deletes: %v", degree, j+1, err)
				}
			}
		}
		if err := bt.checkInvariants(); err != nil {
			t.Fatalf("degree %d final: %v", degree, err)
		}
		deleted := make(map[int]bool, len(del))
		for _, i := range del {
			deleted[i] = true
		}
		for i := 0; i < n; i++ {
			_, ok := bt.Get(intKey(i))
			if ok == deleted[i] {
				t.Fatalf("degree %d: key %d presence wrong", degree, i)
			}
		}
	}
}

func TestBTreeDrainToEmpty(t *testing.T) {
	bt := NewBTreeDegree[spi.Key](2)
	for i := 0; i < 200; i++ {
		bt.Set(intKey(i), "v")
	}
	for i := 199; i >= 0; i-- {
		if !bt.Delete(intKey(i)) {
			t.Fatalf("lost key %d", i)
		}
	}
	if bt.Len() != 0 {
		t.Fatalf("Len = %d after drain", bt.Len())
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Reuse after drain.
	bt.Set(intKey(1), "v")
	if _, ok := bt.Get(intKey(1)); !ok {
		t.Fatal("tree unusable after drain")
	}
}

// TestBTreeMatchesMapQuick drives random operation sequences against a map
// oracle (property-based).
func TestBTreeMatchesMapQuick(t *testing.T) {
	f := func(ops []int16) bool {
		bt := NewBTreeDegree[spi.Key](3)
		oracle := make(map[spi.Key]spi.Key)
		for _, op := range ops {
			k := intKey(int(op) % 64)
			if op%3 == 0 {
				delete(oracle, k)
				bt.Delete(k)
			} else {
				v := spi.Key(fmt.Sprint(op))
				oracle[k] = v
				bt.Set(k, v)
			}
		}
		if bt.Len() != len(oracle) {
			return false
		}
		if err := bt.checkInvariants(); err != nil {
			return false
		}
		for k, v := range oracle {
			got, ok := bt.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBTreeDegreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for degree 1")
		}
	}()
	NewBTreeDegree[spi.Key](1)
}
