package repro.core

import repro.io.IOModel
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Per-query instrumentation shared by all engines in this repo.
  *
  * @param candidates number of sets whose similarity to Q was computed
  * @param ubProbes   number of TGM cells (group × query-token) probed
  * @param groupsRead number of groups fetched from storage
  * @param ioMs       simulated storage time under the engine's [[IOModel]]
  */
final case class SearchStats(candidates: Long, ubProbes: Long, groupsRead: Int, ioMs: Double) {
  /** Pruning efficiency for a kNN query (Definition 2.3). */
  def peKnn(nSets: Int, k: Int): Double =
    (nSets - (candidates - math.min(k, nSets)).toDouble) / nSets
  /** Pruning efficiency for a range query (Definition 2.3). */
  def peRange(nSets: Int, resultSize: Int): Double =
    (nSets - (candidates - resultSize).toDouble) / nSets
}

/** One search hit: set id + its similarity to the query. */
final case class Hit(sid: Int, sim: Double)

/** Hits of one query (kNN hits sorted by descending similarity) + its stats. */
final case class SearchResult(hits: ArrayBuffer[Hit], stats: SearchStats)

/** An exact in-memory engine: range (Definition 2.2) and kNN (Definition 2.1). */
trait SimilarityIndex {
  def range(q: Array[Int], delta: Double): SearchResult
  def knn(q: Array[Int], k: Int): SearchResult
}

/** The k most similar hits offered so far — the kNN accumulator of every
  * engine. A hit displaces the current kth-best only if strictly more
  * similar: a set tying the kth-best is interchangeable with it under
  * Definition 2.1.
  */
final class TopK(k: Int) {
  require(k >= 1, s"kNN needs k >= 1, got k = $k")
  // Min-heap on similarity: once full, its head is the kth-best.
  private val heap = mutable.PriorityQueue.empty[Hit](Ordering.by((h: Hit) => -h.sim))

  def full: Boolean = heap.size >= k
  /** The kth-best similarity so far; defined once [[full]]. */
  def min: Double = heap.head.sim

  def offer(sid: Int, sim: Double): Unit =
    if (heap.size < k) heap.enqueue(Hit(sid, sim))
    else if (sim > heap.head.sim) { heap.dequeue(); heap.enqueue(Hit(sid, sim)) }

  /** The kept hits, sorted by descending similarity. */
  def hits: ArrayBuffer[Hit] = ArrayBuffer.from(heap.clone().dequeueAll.reverse)
}

/** The LES³ in-memory engine: a partitioned database + its [[TGM]], with the
  * filter-and-verify algorithms of §3.1/§6 and the update handling of §6.
  *
  * Groups are assumed laid out contiguously on storage (the paper's layout,
  * §7.6), so fetching a candidate group costs one random access of the
  * group's byte footprint under `io`.
  */
final class Les3Index(initialDb: collection.IndexedSeq[Array[Int]], grouping: Grouping,
                      val measure: SetOps.Measure = SetOps.Jaccard,
                      val io: IOModel = IOModel.InMemory) extends SimilarityIndex {

  /** Mutable database — §6 allows insertions after the index is built. */
  val db: ArrayBuffer[Array[Int]] = ArrayBuffer.from(initialDb)
  /** Member set ids per group. */
  val members: ArrayBuffer[ArrayBuffer[Int]] =
    ArrayBuffer.from(grouping.members.map(ArrayBuffer.from(_)))
  val tgm: TGM = TGM.build(initialDb, grouping, measure)

  def nSets: Int = db.length

  private def groupBytes(g: Int): Long = {
    var total = 0L
    val m = members(g)
    var i = 0
    while (i < m.length) { total += io.dataBytes(db(m(i)).length); i += 1 }
    total
  }

  /** Probes the bound of each group in `gs` and reads the non-empty ones
    * that reach δ: members with sim ≥ δ join `hits`. Returns `s` plus the
    * probes and reads.
    */
  private[core] def verifyRange(q: Array[Int], gs: Array[Int], delta: Double,
                                hits: ArrayBuffer[Hit], s: SearchStats): SearchStats = {
    var candidates = 0L
    var groupsRead = 0
    var ioMs = 0.0
    var j = 0
    while (j < gs.length) {
      val g = gs(j)
      if (tgm.ub(q, g) >= delta && members(g).nonEmpty) {
        groupsRead += 1
        ioMs += io.randomAccess(groupBytes(g))
        val m = members(g)
        var i = 0
        while (i < m.length) {
          val sid = m(i)
          val sim = measure.sim(q, db(sid))
          candidates += 1
          if (sim >= delta) hits += Hit(sid, sim)
          i += 1
        }
      }
      j += 1
    }
    SearchStats(s.candidates + candidates, s.ubProbes + gs.length.toLong * q.length,
                s.groupsRead + groupsRead, s.ioMs + ioMs)
  }

  /** Visits the groups `gs` in order for a kNN query, `ubs(j)` being the
    * bound of `gs(j)`: stops at the first bound that cannot beat the
    * kth-best similarity, and offers every member of the other non-empty
    * groups to `top`. Returns `s` plus the reads.
    */
  private[core] def verifyKnn(q: Array[Int], gs: Array[Int], ubs: Array[Double],
                              top: TopK, s: SearchStats): SearchStats = {
    var candidates = 0L
    var groupsRead = 0
    var ioMs = 0.0
    var j = 0
    var done = false
    while (j < gs.length && !done) {
      val g = gs(j)
      if (top.full && ubs(j) <= top.min) done = true
      else if (members(g).nonEmpty) {
        groupsRead += 1
        ioMs += io.randomAccess(groupBytes(g))
        val m = members(g)
        var i = 0
        while (i < m.length) {
          val sid = m(i)
          val sim = measure.sim(q, db(sid))
          candidates += 1
          top.offer(sid, sim)
          i += 1
        }
      }
      j += 1
    }
    SearchStats(s.candidates + candidates, s.ubProbes, s.groupsRead + groupsRead, s.ioMs + ioMs)
  }

  /** Range search (Definition 2.2): verify exactly the groups whose upper
    * bound reaches δ.
    */
  def range(q: Array[Int], delta: Double): SearchResult = {
    val hits = ArrayBuffer.empty[Hit]
    val stats = verifyRange(q, Array.range(0, tgm.nGroups), delta, hits, SearchStats(0, 0, 0, 0.0))
    SearchResult(hits, stats)
  }

  /** kNN search (Definition 2.1): visit groups in descending-UB order,
    * stopping once the next group's bound cannot beat the kth-best
    * similarity found so far. Exact: any unvisited set has
    * sim ≤ UB(group) ≤ kth-best — a set tying the kth-best is
    * interchangeable with it under Definition 2.1, so the cut uses ≤.
    */
  def knn(q: Array[Int], k: Int): SearchResult = {
    val top = new TopK(k)
    val n = tgm.nGroups
    val ubs = Array.tabulate(n)(tgm.ub(q, _))
    val order = Array.range(0, n).sortBy(g => -ubs(g))
    val stats = verifyKnn(q, order, order.map(ubs), top, SearchStats(0, n.toLong * q.length, 0, 0.0))
    SearchResult(top.hits, stats)
  }

  /** Insert a new set (§6). The set joins the group with the highest
    * similarity upper bound to its previously-seen tokens (ties → smallest
    * group; no seen tokens → smallest group); unseen tokens simply extend
    * the matrix. Returns (set id, group id).
    */
  def insert(set: Array[Int]): (Int, Int) = {
    val seen = set.filter(_ < tgm.nTokens)
    var best = -1
    var bestUb = -1.0
    var g = 0
    while (g < tgm.nGroups) {
      val u = if (seen.isEmpty) 0.0 else tgm.ub(seen, g)
      if (u > bestUb || (u == bestUb && (best < 0 || members(g).length < members(best).length))) {
        best = g; bestUb = u
      }
      g += 1
    }
    val sid = db.length
    db += set
    members(best) += sid
    tgm.addSet(best, set)
    (sid, best)
  }
}
