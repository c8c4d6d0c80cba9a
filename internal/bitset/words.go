package bitset

import (
	"fmt"
	"math/bits"
)

// This file is the word-kernel layer of the packed round engine (DESIGN.md
// §3g): free functions over raw []uint64 rows plus the Block contiguous
// row layout. The Set type above is the safe, capacity-checked API; these
// kernels are the branch-free inner loops the simulation hot path runs on,
// where one operation advances 64 lanes. They do no capacity checking
// beyond slice length (the caller aligns rows via Block or WordsFor), and
// every one of them is differentially pinned against the per-bit Set model
// by TestWordKernelsMatchSets and FuzzBitsetWords.

// WordsFor returns the number of 64-bit words a capacity-n row occupies.
func WordsFor(n int) int { return wordsFor(n) }

// TailMask returns the mask of valid bits in the final word of a
// capacity-n row: bits at positions >= n must stay zero. n must be > 0.
func TailMask(n int) uint64 { return lastWordMask(n) }

// OrWords sets dst |= src word-wise. The slices must have equal length;
// extra words of a longer dst are ignored (range is over src). This is the
// packed engine's round kernel: one call merges 64 heard-set lanes.
func OrWords(dst, src []uint64) {
	_ = dst[:len(src)] // bounds hint
	for i, w := range src {
		dst[i] |= w
	}
}

// OrAndWords sets dst |= src, then acc &= dst, word-wise in one pass
// (range is over src), and reports whether acc still has a bit set. It is
// the packed engine's fused round kernel: one call merges a heard row and
// folds the merged row into the running intersection while it is still
// in cache.
func OrAndWords(dst, src, acc []uint64) bool {
	_, _ = dst[:len(src)], acc[:len(src)] // bounds hints
	var any uint64
	for i, w := range src {
		d := dst[i] | w
		dst[i] = d
		a := acc[i] & d
		acc[i] = a
		any |= a
	}
	return any != 0
}

// AndWords sets dst &= src word-wise (range is over src).
func AndWords(dst, src []uint64) {
	_ = dst[:len(src)]
	for i, w := range src {
		dst[i] &= w
	}
}

// CopyWords copies src into dst word-wise (range is over src).
func CopyWords(dst, src []uint64) {
	copy(dst, src)
}

// ZeroWords clears every word.
func ZeroWords(ws []uint64) {
	for i := range ws {
		ws[i] = 0
	}
}

// FillWords sets all n valid bits of a capacity-n row, masking the tail
// word so the bits-beyond-n invariant holds. len(ws) must be WordsFor(n).
func FillWords(ws []uint64, n int) {
	if n == 0 {
		return
	}
	for i := range ws {
		ws[i] = ^uint64(0)
	}
	ws[len(ws)-1] = lastWordMask(n)
}

// AnyWords reports whether any bit is set.
func AnyWords(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return true
		}
	}
	return false
}

// PopWords returns the total population count.
func PopWords(ws []uint64) int {
	c := 0
	for _, w := range ws {
		c += bits.OnesCount64(w)
	}
	return c
}

// FullWords reports whether a capacity-n row has every valid bit set. It
// is the popcount-free completion check: interior words compare against
// all-ones, the tail word against TailMask(n). len(ws) must be
// WordsFor(n), and n must be > 0.
func FullWords(ws []uint64, n int) bool {
	last := len(ws) - 1
	for i := 0; i < last; i++ {
		if ws[i] != ^uint64(0) {
			return false
		}
	}
	return ws[last] == lastWordMask(n)
}

// EqualWords reports whether the slices hold identical words. Slices of
// different length are never equal.
func EqualWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, w := range a {
		if b[i] != w {
			return false
		}
	}
	return true
}

// Transpose64 transposes the 64×64 bit matrix held in w in place: bit j of
// word i moves to bit i of word j. It is an involution. This is the block
// kernel of boolmat's packed tree product (Hacker's Delight §7-3,
// recursive block swap): transposing 64 rows at a time turns the per-entry
// column gather of a round product into whole-word ORs.
func Transpose64(w *[64]uint64) {
	// Swap 32×32 blocks, then 16×16 within them, down to 1×1. Bit k of a
	// word is column k (LSB-first), matching Set's index convention.
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (w[k]>>uint(j) ^ w[k+j]) & m
			w[k] ^= t << uint(j)
			w[k+j] ^= t
		}
		m ^= m << uint(j>>1)
	}
}

// ColumnCounts sets counts[j], for every j < len(counts), to the number
// of rows with bit j set: the column popcounts of the bit matrix whose
// rows are rows. Every row must hold at least WordsFor(len(counts))
// words, with bits at positions >= len(counts) clear. The rows are read
// in 64×64 tiles, each transposed once (Transpose64) so a column's bits
// land in one word and are counted by one popcount: O(rows·n/64) word
// operations instead of a bit test per entry.
func ColumnCounts(counts []int, rows [][]uint64) {
	n := len(counts)
	for j := range counts {
		counts[j] = 0
	}
	var tile [64]uint64
	for wi := 0; wi < wordsFor(n); wi++ {
		cols := counts[wi*wordBits : min(n, (wi+1)*wordBits)]
		for band := 0; band < len(rows); band += 64 {
			r := rows[band:min(len(rows), band+64)]
			for i, row := range r {
				tile[i] = row[wi]
			}
			for i := len(r); i < 64; i++ {
				tile[i] = 0
			}
			Transpose64(&tile)
			for j := range cols {
				cols[j] += bits.OnesCount64(tile[j])
			}
		}
	}
}

// Wrap returns a Set whose backing words alias ws — mutations through the
// Set are visible in ws and vice versa. len(ws) must be exactly
// WordsFor(n), and the caller must uphold the Set invariant that bits at
// positions >= n stay zero. This is how the packed engines expose rows of
// a Block through the Set API without copying.
func Wrap(n int, ws []uint64) *Set {
	if len(ws) != wordsFor(n) {
		panic(fmt.Sprintf("bitset: Wrap of %d words for capacity %d (want %d)", len(ws), n, wordsFor(n)))
	}
	return &Set{n: n, words: ws}
}

// Block is a dense rows×n bit matrix in one contiguous word slice: row i
// occupies words [i*Stride(), (i+1)*Stride()). The packed engines use it
// to keep all heard/reach rows in one allocation, so the round loop walks
// flat memory instead of chasing per-row pointers.
type Block struct {
	rows   int
	n      int
	stride int
	words  []uint64
}

// NewBlock returns an all-zero rows×n block.
func NewBlock(rows, n int) *Block {
	if rows < 0 || n < 0 {
		panic(fmt.Sprintf("bitset: NewBlock(%d, %d) with negative dimension", rows, n))
	}
	stride := wordsFor(n)
	return &Block{rows: rows, n: n, stride: stride, words: make([]uint64, rows*stride)}
}

// Rows returns the number of rows.
func (b *Block) Rows() int { return b.rows }

// N returns the per-row bit capacity.
func (b *Block) N() int { return b.n }

// Stride returns the number of words per row.
func (b *Block) Stride() int { return b.stride }

// Row returns row i's words, aliased into the block (full-capacity
// three-index slice, so an append can never bleed into row i+1).
func (b *Block) Row(i int) []uint64 {
	lo := i * b.stride
	return b.words[lo : lo+b.stride : lo+b.stride]
}

// RowSet returns row i wrapped as a Set aliasing the block.
func (b *Block) RowSet(i int) *Set { return Wrap(b.n, b.Row(i)) }

// Words returns the whole backing slice (row-major), for whole-block
// kernels like PopWords.
func (b *Block) Words() []uint64 { return b.words }

// Zero clears every row in one flat pass.
func (b *Block) Zero() { ZeroWords(b.words) }

// SetDiagonal sets bit i of row i for every row (requires rows == n): the
// identity state both engines reset to.
func (b *Block) SetDiagonal() {
	if b.rows != b.n {
		panic(fmt.Sprintf("bitset: SetDiagonal on %d×%d block", b.rows, b.n))
	}
	for i := 0; i < b.rows; i++ {
		b.Row(i)[i>>wordShift] |= 1 << (uint(i) & wordMask)
	}
}

// RowFull reports whether row i has all n bits set.
func (b *Block) RowFull(i int) bool {
	if b.n == 0 {
		return true
	}
	return FullWords(b.Row(i), b.n)
}

// CopyFrom overwrites b with o's contents. Dimensions must match.
func (b *Block) CopyFrom(o *Block) {
	if b.rows != o.rows || b.n != o.n {
		panic(fmt.Sprintf("bitset: Block copy %dx%d from %dx%d", b.rows, b.n, o.rows, o.n))
	}
	copy(b.words, o.words)
}

// Clone returns an independent copy of the block.
func (b *Block) Clone() *Block {
	c := &Block{rows: b.rows, n: b.n, stride: b.stride, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}
