package repro.core

/** The token-group matrix (§3.1, Eq. 1): one bit per (group, token), with
  * M[g, t] = 1 iff some set in group g contains token t.
  *
  * The matrix is stored once, as a column view: token t owns ⌈G/64⌉ words
  * of one flat `Array[Long]`, and bit g of them is M[g, t]. [[matchedAll]]
  * counts every group's matched tokens in one pass over Q, touching only
  * the set bits of Q's columns; [[matched]] answers one group with |Q| bit
  * tests. The group count G is fixed at construction; the one writer,
  * [[addSet]], keeps the view current; readers never change it.
  * [[sizeBytes]] reports the size the matrix takes Roaring-compressed by
  * rows, as the paper stores it.
  *
  * The matrix is mutable to support §6's update handling: groups can absorb
  * new sets and the token universe can grow (`nTokens` tracks the largest
  * universe seen; the view grows by doubling). The view is dense in the
  * token id, so the writer rejects a token whose column would take it past
  * [[TGM.MaxColumnLongs]] words, before changing anything.
  *
  * Concurrent reads are safe; a write needs a single writer and no reader
  * running at the same time.
  *
  * @param nGroups number of groups G ≥ 1
  * @param measure similarity measure; must satisfy the TGM Applicability
  *                Property (Thm 3.1) — Jaccard / Cosine / Dice here do.
  */
final class TGM(val nGroups: Int, val measure: SetOps.Measure = SetOps.Jaccard) extends Serializable {
  require(nGroups >= 1, s"a TGM needs at least one group, got $nGroups")

  private var universe = 0

  // The column view: token t's groups are the bits of
  // cols(t * words until (t + 1) * words), with room for colTokens tokens.
  private val words = (nGroups + 63) >>> 6
  private var colTokens = 0
  private var cols = new Array[Long](0)

  /** Current token-universe size (max token id + 1 over everything indexed). */
  def nTokens: Int = universe

  /** Grows the column view to `newTokens` tokens, keeping every column;
    * rejects a view past [[TGM.MaxColumnLongs]] before changing anything.
    */
  private def grow(newTokens: Long): Unit = {
    val longs = words * newTokens
    require(longs <= TGM.MaxColumnLongs,
      s"the column view would need $longs longs for $newTokens tokens, over the limit of ${TGM.MaxColumnLongs}")
    cols = java.util.Arrays.copyOf(cols, longs.toInt)
    colTokens = newTokens.toInt
  }

  /** Checks that every token is non-negative and that the column view can
    * hold the largest, (max + 1) · ⌈G/64⌉ ≤ [[TGM.MaxColumnLongs]]; returns
    * that largest token (-1 for none). Changes nothing.
    */
  private[core] def requireTokens(tokens: Array[Int]): Int = {
    var top = -1
    var i = 0
    while (i < tokens.length) {
      require(tokens(i) >= 0, s"TGM tokens are non-negative, got ${tokens(i)}")
      top = math.max(top, tokens(i))
      i += 1
    }
    require((top + 1L) * words <= TGM.MaxColumnLongs,
      s"token $top needs a column view of ${(top + 1L) * words} longs, over the limit of ${TGM.MaxColumnLongs}")
    top
  }

  /** Record that one set with the given tokens, in any order, joined group
    * `g`: sets M[g, t] for every t in `tokens`. A rejected group or token
    * leaves the view unchanged.
    */
  def addSet(g: Int, tokens: Array[Int]): Unit = {
    java.util.Objects.checkIndex(g, nGroups)
    val top = requireTokens(tokens)
    if (top >= colTokens) grow(math.min(math.max(top + 1L, 2L * colTokens), TGM.MaxColumnLongs / words))
    val word = g >>> 6
    val bit = 1L << (g & 63)
    var i = 0
    while (i < tokens.length) { cols(tokens(i) * words + word) |= bit; i += 1 }
    if (top >= universe) universe = top + 1
  }

  /** |GS_g ∩ Q| — the matched-token count of Eq. 4, one bit test per query
    * token. Tokens outside the universe contribute 0 (the M[*, t'] = 0
    * convention of §3.1).
    */
  def matched(q: Array[Int], g: Int): Int = {
    java.util.Objects.checkIndex(g, nGroups)
    val c = cols; val w = words; val n = colTokens
    val word = g >>> 6
    val bit = 1L << (g & 63)
    var count = 0
    var i = 0
    while (i < q.length) {
      val t = q(i)
      if (t >= 0 && t < n && (c(t * w + word) & bit) != 0) count += 1
      i += 1
    }
    count
  }

  /** [[matched]] for every group at once: one pass over `q`
    * (sorted-distinct) costing Σ_{t ∈ Q} |groups holding t|.
    */
  def matchedAll(q: Array[Int]): Array[Int] = {
    val counts = new Array[Int](nGroups)
    val c = cols; val w = words; val n = colTokens
    var i = 0
    while (i < q.length) {
      val t = q(i)
      if (t >= 0 && t < n) {
        var k = 0
        while (k < w) {
          var bits = c(t * w + k)
          while (bits != 0) {
            counts((k << 6) + java.lang.Long.numberOfTrailingZeros(bits)) += 1
            bits &= bits - 1
          }
          k += 1
        }
      }
      i += 1
    }
    counts
  }

  /** The similarity upper bound UB(Q, G_g) of Eq. 2 / Thm 3.1. */
  def ub(q: Array[Int], g: Int): Double = measure.ubFromOverlap(matched(q, g), q.length)

  /** [[ub]] for every group at once, in one [[matchedAll]] pass. */
  def ubs(q: Array[Int]): Array[Double] = {
    val m = matchedAll(q)
    val out = new Array[Double](m.length)
    var g = 0
    while (g < m.length) { out(g) = measure.ubFromOverlap(m(g), q.length); g += 1 }
    out
  }

  /** Compressed index size in bytes (Fig. 11): the serialized size of the
    * matrix's rows as Roaring bitmaps (Chambi et al., SPE 2016). Each
    * (group, 2^16-token chunk) holding c > 0 tokens costs a 4-byte key plus
    * an array container of 2c bytes, or an 8 KiB bitmap container past
    * 4,096 values: 4 + min(2c, 8192). Each chunk's counts c are one
    * [[matchedAll]] over its tokens.
    */
  def sizeBytes: Long =
    (0 until universe by 65536).iterator
      .flatMap(base => matchedAll(Array.range(base, math.min(universe, base + 65536))))
      .filter(_ > 0).map(c => 4L + math.min(2 * c, 8192)).sum

  /** Bytes the column view holds in memory, ≈ nTokens · ⌈G/64⌉ · 8. */
  def columnBytes: Long = cols.length * 8L
}

object TGM {

  /** Most `Long` words the column view may hold: 2^27, i.e. 1 GiB. A token
    * t is accepted only while (t + 1) · ⌈G/64⌉ stays within it (about 67M
    * tokens at G ≤ 128).
    */
  val MaxColumnLongs: Long = 1L << 27

  /** Build a TGM from a database and a partitioning. The column view is
    * sized once for the database's largest token, then filled by `addSet`.
    */
  def build(db: collection.IndexedSeq[Array[Int]], grouping: Grouping,
            measure: SetOps.Measure = SetOps.Jaccard): TGM = {
    val tgm = new TGM(grouping.nGroups, measure)
    val universe = db.iterator.map(s => if (s.isEmpty) 0L else s.max + 1L).foldLeft(0L)(math.max)
    if (universe > 0) tgm.grow(universe)
    var sid = 0
    while (sid < db.length) {
      tgm.addSet(grouping.assignment(sid), db(sid))
      sid += 1
    }
    tgm
  }
}
