package repro.core

import repro.io.IOModel
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Per-query instrumentation shared by all engines in this repo.
  *
  * @param candidates number of candidate sets: for LES³/HTGM the members of
  *                   the groups read, the quantity of Definition 2.3
  * @param ubProbes   number of TGM cells (group × query-token) whose bit
  *                   the UB computation answered
  * @param groupsRead number of groups fetched from storage
  * @param ioMs       simulated storage time under the engine's [[IOModel]]
  * @param verified   number of sets whose similarity to Q was computed; at
  *                   most `candidates`, as LES³ skips candidates whose size
  *                   cannot qualify
  */
final case class SearchStats(candidates: Long, ubProbes: Long, groupsRead: Int, ioMs: Double,
                             verified: Long) {
  /** Pruning efficiency for a kNN query (Definition 2.3). */
  def peKnn(nSets: Int, k: Int): Double =
    (nSets - (candidates - math.min(k, nSets)).toDouble) / nSets
}

object SearchStats {
  /** Stats of an engine that verifies every candidate. */
  def apply(candidates: Long, ubProbes: Long, groupsRead: Int, ioMs: Double): SearchStats =
    SearchStats(candidates, ubProbes, groupsRead, ioMs, candidates)
}

/** One search hit: set id + its similarity to the query. */
final case class Hit(sid: Int, sim: Double)

/** Hits of one query (kNN hits sorted by descending similarity) + its stats. */
final case class SearchResult(hits: ArrayBuffer[Hit], stats: SearchStats)

/** An exact in-memory engine: range (Definition 2.2) and kNN (Definition 2.1).
  * Queries must be canonical (sorted, distinct, non-negative tokens); an
  * engine rejects any other with `IllegalArgumentException`
  * ([[SetOps.requireCanonical]]). So does a range threshold outside
  * (0, 1] ([[SetOps.requireDelta]]), except in [[repro.baselines.BruteForce]],
  * whose range at δ = 0 is the scan of every similarity that the
  * benchmark's oracle reads.
  */
trait SimilarityIndex {
  def range(q: Array[Int], delta: Double): SearchResult
  def knn(q: Array[Int], k: Int): SearchResult
}

/** The accumulator of one search and its bar: the least similarity that can
  * still change the answer. The filter-and-verify step of §3.1 reads a group
  * only if its bound reaches the bar, and verifies a member only if its size
  * bound does; range holds the bar at δ, kNN raises it as hits come in.
  * [[Within]] and [[TopK]] are the only two, so the verify loop's calls stay
  * bimorphic.
  */
sealed trait Sink {
  def bar: Double
  def offer(sid: Int, sim: Double): Unit
}

/** The range accumulator (Definition 2.2): keeps every offered hit with
  * sim ≥ δ, in offer order; its bar is δ.
  */
final class Within(delta: Double) extends Sink {
  val hits: ArrayBuffer[Hit] = ArrayBuffer.empty

  def bar: Double = delta

  def offer(sid: Int, sim: Double): Unit = if (sim >= delta) hits += Hit(sid, sim)
}

/** The k most similar hits offered so far — the kNN accumulator of every
  * engine. A hit displaces the current kth-best only if strictly more
  * similar: a set tying the kth-best is interchangeable with it under
  * Definition 2.1.
  */
final class TopK(k: Int) extends Sink {
  require(k >= 1, s"kNN needs k >= 1, got k = $k")
  // Min-heap on similarity: once full, its head is the kth-best.
  private val heap = mutable.PriorityQueue.empty[Hit](Ordering.by((h: Hit) => -h.sim))

  def full: Boolean = heap.size >= k
  /** The kth-best similarity so far; defined once [[full]]. */
  def min: Double = heap.head.sim

  /** −∞ until [[full]], then the least similarity above the kth-best. */
  def bar: Double = if (full) Math.nextUp(min) else Double.NegativeInfinity

  def offer(sid: Int, sim: Double): Unit =
    if (heap.size < k) heap.enqueue(Hit(sid, sim))
    else if (sim > heap.head.sim) { heap.dequeue(); heap.enqueue(Hit(sid, sim)) }

  /** The kept hits, sorted by descending similarity. */
  def hits: ArrayBuffer[Hit] = ArrayBuffer.from(heap.clone().dequeueAll.reverse)
}

/** The LES³ in-memory engine: a partitioned database + its [[TGM]], with the
  * filter-and-verify algorithms of §3.1/§6 and the update handling of §6.
  *
  * Its [[GroupStore]] holds each group as one contiguous, size-sorted
  * [[GroupBlock]] (the paper's layout, §7.6), so fetching a candidate
  * group costs one random access of the group's byte footprint under
  * `io`, and verification computes the similarity only of the members
  * whose size can qualify.
  * Every query takes all group bounds in one pass ([[TGM.ubs]]).
  *
  * Concurrent queries are safe; `insert` needs a single writer and no
  * query running at the same time.
  */
final class Les3Index(initialDb: collection.IndexedSeq[Array[Int]], grouping: Grouping,
                      val measure: SetOps.Measure = SetOps.Jaccard,
                      val io: IOModel = IOModel.InMemory) extends SimilarityIndex {

  /** Mutable database — §6 allows insertions after the index is built. */
  val db: ArrayBuffer[Array[Int]] = ArrayBuffer.from(initialDb)
  private[core] val store: GroupStore = new GroupStore(initialDb, grouping, io)
  val tgm: TGM = TGM.build(initialDb, grouping, measure)

  def nSets: Int = db.length

  /** Member set ids of group `g` in (size, sid) order: a snapshot of its
    * block's ids, not a copy.
    */
  def members(g: Int): ArraySeq.ofInt = new ArraySeq.ofInt(store.blocks(g).sids)

  /** Range search (Definition 2.2): verify exactly the groups whose upper
    * bound reaches δ.
    */
  def range(q: Array[Int], delta: Double): SearchResult = {
    SetOps.requireCanonical(q, "range")
    SetOps.requireDelta(delta, "range")
    val hits = new Within(delta)
    val stats = store.searchRange(q, tgm.ubs(q), tgm.measure, hits)
    SearchResult(hits.hits, stats)
  }

  /** kNN search (Definition 2.1): visit groups in descending-UB order,
    * stopping once the next group's bound cannot beat the kth-best
    * similarity found so far ([[GroupStore.searchKnn]]).
    */
  def knn(q: Array[Int], k: Int): SearchResult = {
    SetOps.requireCanonical(q, "knn")
    val top = new TopK(k)
    val stats = store.searchKnn(q, tgm.ubs(q), tgm.measure, top)
    SearchResult(top.hits, stats)
  }

  /** Insert a new set (§6), which must be sorted-distinct and non-negative,
    * with tokens the TGM's column view can hold ([[TGM.requireTokens]]);
    * a rejected set leaves the index unchanged. The set joins the group
    * with the highest similarity upper bound to its previously-seen tokens
    * (ties → smallest group; no seen tokens → smallest group); unseen
    * tokens simply extend the matrix. Returns (set id, group id).
    */
  def insert(set: Array[Int]): (Int, Int) = {
    SetOps.requireCanonical(set, "insert")
    tgm.requireTokens(set)
    val seen = set.filter(_ < tgm.nTokens)
    val ubs = tgm.ubs(seen)
    var best = -1
    var bestUb = -1.0
    var g = 0
    while (g < tgm.nGroups) {
      val u = if (seen.isEmpty) 0.0 else ubs(g)
      if (u > bestUb || (u == bestUb && (best < 0 || store.blocks(g).n < store.blocks(best).n))) {
        best = g; bestUb = u
      }
      g += 1
    }
    val sid = db.length
    db += set
    store.blocks(best).insert(sid, set)
    tgm.addSet(best, set)
    (sid, best)
  }
}
