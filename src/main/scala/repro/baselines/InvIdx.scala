package repro.baselines

import repro.core.{Hit, SearchResult, SearchStats, SetOps, SimilarityIndex, TopK}
import repro.io.IOModel
import scala.collection.mutable.ArrayBuffer

/** InvIdx — the inverted-index baseline (§7.6, after Wang et al. [67]):
  * a full inverted index in global token-frequency order with query-side
  * prefix filtering plus the Jaccard length filter.
  *
  * Range correctness: a set S reaches Jaccard δ only if its length bound
  * `Jaccard.sizeUb(|Q|, |S|)` does (the length filter) and its overlap o
  * with Q has o/|Q| ≥ δ, as o/|Q| ≥ o/|Q ∪ S|. Both tests are made on the
  * same floating-point quotients as the similarity itself, never on a
  * rounded closed form such as ⌈δ|Q|⌉, which can drop true hits. With o*
  * the least such overlap, order the query rarest-first and take its
  * prefix of length |Q| − o* + 1: a set sharing no prefix token has
  * overlap < o* — so scanning only prefix-token postings is exact.
  *
  * kNN follows the paper's adaptation: start at δ = 1.0, fetch candidates,
  * and lower δ by z until the kth-best similarity reaches the current δ.
  *
  * Jaccard-specific (as is the paper's evaluation).
  */
final class InvIdx(db: collection.IndexedSeq[Array[Int]], io: IOModel = IOModel.InMemory)
    extends SimilarityIndex {

  private val nTokens: Int = {
    var max = -1
    for (s <- db; t <- s) if (t > max) max = t
    max + 1
  }

  // token → global frequency, then token → rank (rarest first, ties by id)
  private val freq = {
    val f = new Array[Int](math.max(1, nTokens))
    for (s <- db; t <- s) f(t) += 1
    f
  }
  private val rankOf: Array[Int] = {
    val order = Array.range(0, math.max(1, nTokens)).sortBy(t => (freq(t), t))
    val r = new Array[Int](order.length)
    for (i <- order.indices) r(order(i)) = i
    r
  }

  /** The empty sets: no posting list leads to them, and they alone reach an
    * empty query (Jaccard 1).
    */
  private val empties: Array[Int] = db.indices.filter(db(_).isEmpty).toArray

  /** Full inverted index: token → ascending sids. */
  private val postings: Array[Array[Int]] = {
    val builders = Array.fill(math.max(1, nTokens))(new ArrayBuffer[Int]())
    for (sid <- db.indices; t <- db(sid)) builders(t) += sid
    builders.map(_.toArray)
  }

  /** Index footprint: postings (4 B/entry + 8 B/list) + set lengths. */
  def sizeBytes: Long =
    postings.iterator.map(p => 4L * p.length + 8L).sum + 4L * db.length

  private def sortQuery(q: Array[Int]): Array[Int] =
    q.sortBy(t => if (t < nTokens) rankOf(t) else Int.MaxValue)

  /** Query prefix length for threshold δ: |Q| − o* + 1, where o* is the
    * least overlap o ≤ |Q| with `Jaccard.sizeUb(|Q|, o)` = o/|Q| ≥ δ
    * (|Q| + 1 if none, giving an empty prefix), at most |Q|.
    */
  private def prefixLen(qLen: Int, delta: Double): Int = {
    var lo = 0; var hi = qLen + 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (mid <= qLen && SetOps.Jaccard.sizeUb(qLen, mid) >= delta) hi = mid else lo = mid + 1
    }
    if (lo > qLen) 0 else qLen - math.max(1, lo) + 1
  }

  /** The prefix-filtering scan of one query, kept across its δ rounds:
    * the sets already verified, and the candidates and time charged so far.
    */
  private final class Scan(q: Array[Int]) {
    val qs: Array[Int] = sortQuery(q)
    val seen = new java.util.HashSet[Int]()
    var candidates = 0L
    var ioMs = 0.0

    /** One round at threshold δ: reads the postings of `qs`'s prefix and
      * verifies each unseen set that passes the length filter, handing it
      * and its similarity to `found`.
      */
    def round(delta: Double)(found: (Int, Double) => Unit): Unit = {
      val p = if (qs.isEmpty) 0 else prefixLen(qs.length, delta)
      var i = 0
      while (i < p) {
        val t = qs(i)
        if (t < nTokens && postings(t).nonEmpty) {
          ioMs += io.randomAccess(io.indexBytes(4L * postings(t).length + 8L))
          for (sid <- postings(t)) {
            val len = db(sid).length
            if (SetOps.Jaccard.sizeUb(qs.length, len) >= delta && seen.add(sid)) {
              ioMs += io.randomAccess(io.dataBytes(len, 1))
              val sim = SetOps.jaccard(q, db(sid))
              candidates += 1
              found(sid, sim)
            }
          }
        }
        i += 1
      }
    }

    def stats: SearchStats = SearchStats(candidates, 0, 0, ioMs)
  }

  def range(q: Array[Int], delta: Double): SearchResult = {
    SetOps.requireCanonical(q, "range")
    SetOps.requireDelta(delta, "range")
    if (q.isEmpty) {
      val hits = if (1.0 >= delta) ArrayBuffer.from(empties.map(Hit(_, 1.0))) else ArrayBuffer.empty[Hit]
      return SearchResult(hits, SearchStats(empties.length, 0, 0, 0.0))
    }
    val scan = new Scan(q)
    val hits = ArrayBuffer.empty[Hit]
    scan.round(delta)((sid, sim) => if (sim >= delta) hits += Hit(sid, sim))
    SearchResult(hits, scan.stats)
  }

  def knn(q: Array[Int], k: Int): SearchResult = knn(q, k, z = 0.05)

  /** kNN via δ-decreasing filtering with step `z` (§7.6). The paper's
    * critique of InvIdx kNN: the filtering pass is repeated for every δ
    * round, re-reading the prefix postings each time — so each round's
    * list scan is charged.
    */
  def knn(q: Array[Int], k: Int, z: Double): SearchResult = {
    SetOps.requireCanonical(q, "knn")
    val top = new TopK(k)
    val scan = new Scan(q)
    var delta = 1.0
    var done = false
    if (q.isEmpty) {
      // Only the empty sets score above 0; the fill below adds the rest.
      for (sid <- empties) { top.offer(sid, 1.0); scan.seen.add(sid) }
      scan.candidates += empties.length
      delta = 0.0
    }

    while (!done) {
      scan.round(delta)(top.offer)
      // Terminate once the kth-best reaches the current δ: every unseen set
      // has similarity < δ.
      if (top.full && top.min >= delta) done = true
      else if (delta <= 0.0 + 1e-12) {
        // δ exhausted: unseen sets share no token with Q (similarity 0);
        // fill the result with arbitrary unseen sets if still short.
        var sid = 0
        while (!top.full && sid < db.length) {
          if (!scan.seen.contains(sid)) {
            top.offer(sid, SetOps.jaccard(q, db(sid)))
            scan.candidates += 1
          }
          sid += 1
        }
        done = true
      } else delta = math.max(0.0, delta - z)
    }
    SearchResult(top.hits, scan.stats)
  }
}
