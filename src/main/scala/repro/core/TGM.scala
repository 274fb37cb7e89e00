package repro.core

import repro.bitmap.RoaringLite
import scala.collection.mutable.ArrayBuffer

/** The token-group matrix (§3.1, Eq. 1): one bit per (group, token), with
  * M[g, t] = 1 iff some set in group g contains token t. Rows are stored as
  * compressed bitmaps ([[RoaringLite]]), making the whole index a bitmap
  * collection exactly as the paper describes.
  *
  * The matrix is mutable to support §6's update handling: groups can absorb
  * new sets and the token universe can grow (`nTokens` tracks the largest
  * universe seen; bitmaps are sparse so growth costs nothing).
  *
  * @param measure similarity measure; must satisfy the TGM Applicability
  *                Property (Thm 3.1) — Jaccard / Cosine / Dice here do.
  */
final class TGM(val measure: SetOps.Measure = SetOps.Jaccard) extends Serializable {

  private val rows = ArrayBuffer.empty[RoaringLite]
  private val sizes = ArrayBuffer.empty[Int]
  /** Current token-universe size (max token id + 1 over everything indexed). */
  var nTokens: Int = 0

  def nGroups: Int = rows.length
  def groupSize(g: Int): Int = sizes(g)
  def groupSizes: IndexedSeq[Int] = sizes.toIndexedSeq

  /** Append an empty group; returns its id. */
  def addGroup(): Int = {
    rows += RoaringLite.empty()
    sizes += 0
    rows.length - 1
  }

  /** Bulk-build hook: mark tokens present in group `g` without changing its
    * size (used when the bitmap content arrives pre-aggregated, e.g. from a
    * Spark `collect_set`).
    */
  def addTokensOnly(g: Int, tokens: Iterable[Int]): Unit = {
    val bm = rows(g)
    for (t <- tokens) {
      bm.add(t)
      if (t >= nTokens) nTokens = t + 1
    }
  }

  /** Bulk-build hook: set the recorded size of group `g`. */
  def setSize(g: Int, n: Int): Unit = sizes(g) = n

  /** Record that one set with the given tokens joined group `g`. */
  def addSet(g: Int, tokens: Array[Int]): Unit = {
    val bm = rows(g)
    var i = 0
    while (i < tokens.length) {
      bm.add(tokens(i))
      if (tokens(i) >= nTokens) nTokens = tokens(i) + 1
      i += 1
    }
    sizes(g) += 1
  }

  /** |GS_g ∩ Q| — the matched-token count of Eq. 4. Tokens outside the
    * universe contribute 0 (the M[*, t'] = 0 convention of §3.1).
    */
  def matched(q: Array[Int], g: Int): Int = rows(g).countContained(q)

  /** The similarity upper bound UB(Q, G_g) of Eq. 2 / Thm 3.1. */
  def ub(q: Array[Int], g: Int): Double = measure.ubFromOverlap(matched(q, g), q.length)

  /** Compressed index size in bytes (Fig. 11). */
  def sizeBytes: Long = rows.iterator.map(_.sizeBytes).sum

  /** Distinct tokens present in group `g` (|GS_g|, the per-group term of
    * the U metric, Eq. 10).
    */
  def groupTokenCount(g: Int): Long = rows(g).cardinality
}

object TGM {

  /** Build a TGM from a database and a partitioning. */
  def build(db: collection.IndexedSeq[Array[Int]], grouping: Grouping,
            measure: SetOps.Measure = SetOps.Jaccard): TGM = {
    val tgm = new TGM(measure)
    var g = 0
    while (g < grouping.nGroups) { tgm.addGroup(); g += 1 }
    var sid = 0
    while (sid < db.length) {
      tgm.addSet(grouping.assignment(sid), db(sid))
      sid += 1
    }
    tgm
  }
}
