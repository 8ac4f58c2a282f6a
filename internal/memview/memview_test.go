package memview

import (
	"slices"
	"testing"

	"sampleview/internal/record"
)

func rec(seq uint64, key int64) record.Record {
	return record.Record{Key: key, Amount: int64(seq), Seq: seq}
}

func TestInsertDeleteAnnihilates(t *testing.T) {
	b := New()
	for i := uint64(0); i < 10; i++ {
		if err := b.Insert(rec(i, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Delete(rec(3, 3)); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 9 || b.Tombstones() != 0 {
		t.Fatalf("in-buffer delete kept a tombstone: len=%d tombs=%d", b.Len(), b.Tombstones())
	}
	// Deleting something never buffered leaves a tombstone.
	if err := b.Delete(rec(100, 100)); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 9 || b.Tombstones() != 1 {
		t.Fatalf("delete of older record: len=%d tombs=%d", b.Len(), b.Tombstones())
	}
}

func TestSnapshotSortedAndImmutable(t *testing.T) {
	b := New()
	for _, seq := range []uint64{5, 1, 9, 3} {
		b.Insert(rec(seq, int64(seq)))
	}
	b.Delete(rec(40, 40))
	b.Delete(rec(20, 20))
	s := b.Snapshot()
	for i := 1; i < len(s.Inserts); i++ {
		if s.Inserts[i-1].Seq >= s.Inserts[i].Seq {
			t.Fatal("snapshot inserts not sorted by Seq")
		}
	}
	for i := 1; i < len(s.Tombs); i++ {
		if s.Tombs[i-1].Seq >= s.Tombs[i].Seq {
			t.Fatal("snapshot tombstones not sorted by Seq")
		}
	}
	// The buffer keeps filling; the snapshot must not change.
	b.Insert(rec(7, 7))
	if len(s.Inserts) != 4 {
		t.Fatalf("snapshot changed after insert: %d inserts", len(s.Inserts))
	}
	if !s.Deleted(20) || !s.Deleted(40) || s.Deleted(5) {
		t.Fatal("snapshot Deleted() wrong")
	}
}

func TestSealFreezes(t *testing.T) {
	b := New()
	b.Insert(rec(1, 1))
	s := b.Seal()
	if len(s.Inserts) != 1 {
		t.Fatalf("seal snapshot has %d inserts", len(s.Inserts))
	}
	if err := b.Insert(rec(2, 2)); err != ErrSealed {
		t.Fatalf("insert after seal: %v", err)
	}
	if err := b.Delete(rec(1, 1)); err != ErrSealed {
		t.Fatalf("delete after seal: %v", err)
	}
}

func TestMatchingInserts(t *testing.T) {
	b := New()
	for i := int64(0); i < 100; i++ {
		b.Insert(record.Record{Key: i, Seq: uint64(i)})
	}
	got := b.Snapshot().MatchingInserts(nil, record.Box1D(10, 19))
	if len(got) != 10 {
		t.Fatalf("matched %d, want 10", len(got))
	}
	for _, r := range got {
		if r.Key < 10 || r.Key > 19 {
			t.Fatalf("record key %d outside predicate", r.Key)
		}
	}
}

// TestSnapshotCache: Snapshots between writes share one cached copy (no
// allocation), a held snapshot survives later writes unchanged, and the
// next Snapshot after a write reflects it.
func TestSnapshotCache(t *testing.T) {
	b := New()
	for i := uint64(0); i < 50; i++ {
		b.Insert(rec(i, int64(i)))
	}
	b.Delete(rec(100, 100))
	before := b.Snapshot()
	ins := append([]record.Record(nil), before.Inserts...)
	tombs := append([]record.Record(nil), before.Tombs...)

	if allocs := testing.AllocsPerRun(100, func() { _ = b.Snapshot() }); allocs != 0 {
		t.Fatalf("repeated Snapshot with no write allocates %.1f times", allocs)
	}

	b.Insert(rec(60, 60))
	if !slices.Equal(before.Inserts, ins) || !slices.Equal(before.Tombs, tombs) {
		t.Fatal("held snapshot changed after Insert")
	}
	after := b.Snapshot()
	if len(after.Inserts) != len(ins)+1 || after.Inserts[len(after.Inserts)-1].Seq != 60 {
		t.Fatalf("Snapshot after Insert misses it: %d inserts", len(after.Inserts))
	}

	b.Delete(rec(3, 3))   // annihilates a buffered insert
	b.Delete(rec(200, 0)) // tombstones an older record
	if len(after.Inserts) != len(ins)+1 || len(after.Tombs) != len(tombs) {
		t.Fatal("held snapshot changed after Delete")
	}
	final := b.Snapshot()
	if len(final.Inserts) != len(after.Inserts)-1 || len(final.Tombs) != len(tombs)+1 {
		t.Fatalf("Snapshot after Delete: %d inserts, %d tombs", len(final.Inserts), len(final.Tombs))
	}
	for _, r := range final.Inserts {
		if r.Seq == 3 {
			t.Fatal("annihilated insert still in the next Snapshot")
		}
	}
	if !final.Deleted(200) || after.Deleted(200) {
		t.Fatal("tombstone missing from the next Snapshot or leaked into the held one")
	}

	// Seal hands the flush its own slices, never the cached snapshot's.
	sealed := b.Seal()
	if len(sealed.Inserts) > 0 && &sealed.Inserts[0] == &final.Inserts[0] {
		t.Fatal("Seal aliases the cached snapshot")
	}
}
