package bitset

import (
	"math/rand"
	"testing"
)

// randWords returns a deterministic pseudo-random capacity-n row with the
// tail-word invariant (bits >= n are zero) upheld.
func randWords(r *rand.Rand, n int) []uint64 {
	ws := make([]uint64, wordsFor(n))
	for i := range ws {
		ws[i] = r.Uint64()
	}
	if n > 0 {
		ws[len(ws)-1] &= lastWordMask(n)
	}
	return ws
}

// setFromWords builds an equivalent Set by per-bit insertion, the naive
// model every word kernel is checked against.
func setFromWords(n int, ws []uint64) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if ws[i>>wordShift]&(1<<(uint(i)&wordMask)) != 0 {
			s.Set(i)
		}
	}
	return s
}

// TestWordKernelsMatchSets differentially checks every word kernel against
// the per-bit Set API over sizes that exercise single-word, exact-multiple
// and tail-masked layouts.
func TestWordKernelsMatchSets(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 3, 63, 64, 65, 100, 128, 129, 200, 256} {
		for trial := 0; trial < 20; trial++ {
			a, b := randWords(r, n), randWords(r, n)
			sa, sb := setFromWords(n, a), setFromWords(n, b)

			or := append([]uint64(nil), a...)
			OrWords(or, b)
			su := sa.Clone()
			su.Union(sb)
			if !su.Equal(Wrap(n, or)) {
				t.Fatalf("n=%d: OrWords disagrees with Set.Union", n)
			}

			and := append([]uint64(nil), a...)
			AndWords(and, b)
			si := sa.Clone()
			si.Intersect(sb)
			if !si.Equal(Wrap(n, and)) {
				t.Fatalf("n=%d: AndWords disagrees with Set.Intersect", n)
			}

			if got, want := PopWords(a), sa.Count(); got != want {
				t.Fatalf("n=%d: PopWords = %d, Set.Count = %d", n, got, want)
			}
			if got, want := AnyWords(a), !sa.Empty(); got != want {
				t.Fatalf("n=%d: AnyWords = %v, !Set.Empty = %v", n, got, want)
			}
			if got, want := FullWords(a, n), sa.Full(); got != want {
				t.Fatalf("n=%d: FullWords = %v, Set.Full = %v", n, got, want)
			}
			if got, want := EqualWords(a, b), sa.Equal(sb); got != want {
				t.Fatalf("n=%d: EqualWords = %v, Set.Equal = %v", n, got, want)
			}

			fill := append([]uint64(nil), a...)
			FillWords(fill, n)
			if !FullWords(fill, n) || PopWords(fill) != n {
				t.Fatalf("n=%d: FillWords did not produce a full masked row", n)
			}
			ZeroWords(fill)
			if AnyWords(fill) {
				t.Fatalf("n=%d: ZeroWords left bits set", n)
			}
		}
	}
}

// TestOrAndWordsMatchesSets pins the fused round kernel against the
// per-bit Set model: dst becomes dst ∪ src, acc becomes acc ∩ (dst ∪ src),
// and the result reports whether acc is non-empty — including the
// all-ones and empty accumulators the engine starts and ends with.
func TestOrAndWordsMatchesSets(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 3, 63, 64, 65, 100, 129, 256} {
		for trial := 0; trial < 20; trial++ {
			dst, src, acc := randWords(r, n), randWords(r, n), randWords(r, n)
			switch trial % 4 {
			case 1:
				FillWords(acc, n)
			case 2:
				ZeroWords(acc)
			case 3:
				FillWords(src, n)
			}
			union := setFromWords(n, dst)
			union.Union(setFromWords(n, src))
			inter := setFromWords(n, acc)
			inter.Intersect(union)

			live := OrAndWords(dst, src, acc)
			if !union.Equal(Wrap(n, dst)) {
				t.Fatalf("n=%d trial %d: OrAndWords dst disagrees with Set.Union", n, trial)
			}
			if !inter.Equal(Wrap(n, acc)) {
				t.Fatalf("n=%d trial %d: OrAndWords acc disagrees with Set.Intersect", n, trial)
			}
			if live != !inter.Empty() {
				t.Fatalf("n=%d trial %d: OrAndWords = %v, intersection empty = %v", n, trial, live, inter.Empty())
			}
		}
	}
}

// columnCountsModel is the per-bit model of ColumnCounts: one bit test
// per matrix entry.
func columnCountsModel(n int, rows [][]uint64) []int {
	counts := make([]int, n)
	for _, row := range rows {
		s := setFromWords(n, row)
		for j := 0; j < n; j++ {
			if s.Test(j) {
				counts[j]++
			}
		}
	}
	return counts
}

// TestColumnCountsMatchesPerBitModel pins the tile-transpose column
// popcount kernel against the per-bit model at sizes straddling the
// 64-bit word and 64-row band edges, with square and non-square row
// counts, random, full (tail-masked) and empty rows, and stale counts
// in the destination that the kernel must overwrite.
func TestColumnCountsMatchesPerBitModel(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 63, 64, 65, 130, 256, 1000} {
		for _, nrows := range []int{n, n/2 + 1, n + 7} {
			rows := make([][]uint64, nrows)
			for i := range rows {
				rows[i] = randWords(r, n)
				switch i % 5 {
				case 1:
					FillWords(rows[i], n)
				case 2:
					ZeroWords(rows[i])
				}
			}
			got := make([]int, n)
			for j := range got {
				got[j] = -1 - j
			}
			ColumnCounts(got, rows)
			want := columnCountsModel(n, rows)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("n=%d rows=%d: column %d count = %d, per-bit model %d",
						n, nrows, j, got[j], want[j])
				}
			}
		}
	}
	// No rows: every column count is zero.
	got := []int{4, 5, 6}
	ColumnCounts(got, nil)
	for j, c := range got {
		if c != 0 {
			t.Fatalf("no rows: column %d count = %d", j, c)
		}
	}
}

func TestWordsForAndTailMask(t *testing.T) {
	cases := []struct {
		n     int
		words int
		tail  uint64
	}{
		{1, 1, 1},
		{63, 1, (1 << 63) - 1},
		{64, 1, ^uint64(0)},
		{65, 2, 1},
		{128, 2, ^uint64(0)},
		{129, 3, 1},
	}
	for _, c := range cases {
		if got := WordsFor(c.n); got != c.words {
			t.Errorf("WordsFor(%d) = %d, want %d", c.n, got, c.words)
		}
		if got := TailMask(c.n); got != c.tail {
			t.Errorf("TailMask(%d) = %#x, want %#x", c.n, got, c.tail)
		}
	}
}

// TestTranspose64 checks the bit transpose against the naive per-bit
// definition (bit j of word i moves to bit i of word j) and that applying
// it twice is the identity.
func TestTranspose64(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var w, orig [64]uint64
		for i := range w {
			w[i] = r.Uint64()
		}
		orig = w

		var want [64]uint64
		for i := 0; i < 64; i++ {
			for j := 0; j < 64; j++ {
				if orig[i]&(1<<uint(j)) != 0 {
					want[j] |= 1 << uint(i)
				}
			}
		}

		Transpose64(&w)
		if w != want {
			t.Fatalf("trial %d: Transpose64 disagrees with naive transpose", trial)
		}
		Transpose64(&w)
		if w != orig {
			t.Fatalf("trial %d: Transpose64 is not an involution", trial)
		}
	}
}

func TestWrapAliases(t *testing.T) {
	ws := make([]uint64, WordsFor(100))
	s := Wrap(100, ws)
	s.Set(99)
	if ws[1]&(1<<35) == 0 {
		t.Fatal("Set through Wrap not visible in backing words")
	}
	ws[0] = 1
	if !s.Test(0) {
		t.Fatal("backing-word mutation not visible through Wrap")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Wrap with wrong word count did not panic")
		}
	}()
	Wrap(100, make([]uint64, 1))
}

func TestBlock(t *testing.T) {
	b := NewBlock(5, 100)
	if b.Rows() != 5 || b.N() != 100 || b.Stride() != 2 {
		t.Fatalf("block shape = %d×%d stride %d", b.Rows(), b.N(), b.Stride())
	}
	// Rows alias the block and are isolated from each other.
	b.RowSet(2).Set(99)
	if b.Words()[2*2+1]&(1<<35) == 0 {
		t.Fatal("RowSet mutation not visible in block words")
	}
	for i := 0; i < 5; i++ {
		if want := map[bool]int{true: 1, false: 0}[i == 2]; PopWords(b.Row(i)) != want {
			t.Fatalf("row %d popcount = %d, want %d", i, PopWords(b.Row(i)), want)
		}
	}

	FillWords(b.Row(3), 100)
	if !b.RowFull(3) || b.RowFull(2) {
		t.Fatal("RowFull wrong after filling row 3")
	}

	c := b.Clone()
	b.Zero()
	if AnyWords(b.Words()) {
		t.Fatal("Zero left bits set")
	}
	if !c.RowFull(3) {
		t.Fatal("Clone not independent of Zero")
	}
	b.CopyFrom(c)
	if !b.RowFull(3) {
		t.Fatal("CopyFrom did not restore contents")
	}

	d := NewBlock(4, 4)
	d.SetDiagonal()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got := d.RowSet(i).Test(j); got != (i == j) {
				t.Fatalf("diagonal bit (%d,%d) = %v", i, j, got)
			}
		}
	}
}

func TestBlockPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("NewBlock negative", func() { NewBlock(-1, 4) })
	mustPanic("SetDiagonal non-square", func() { NewBlock(3, 4).SetDiagonal() })
	mustPanic("CopyFrom mismatched", func() { NewBlock(3, 4).CopyFrom(NewBlock(4, 4)) })
}
