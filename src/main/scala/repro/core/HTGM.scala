package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Hierarchical TGM (§5.2, evaluated in §7.7).
  *
  * The L2P cascade yields nested groupings; HTGM keeps a [[TGM]] per
  * retained level plus the child links between consecutive levels; the
  * finest level is a flat [[Les3Index]], whose [[GroupStore]] verifies
  * the fine groups that survive. Search proceeds best-first through the
  * hierarchy: the root level's bounds come from one all-groups pass
  * ([[TGM.ubs]]), and a child's bound is probed only if its coarse group
  * survives — so a pruned coarse group eliminates all verification *and
  * all index probing* below it, which is exactly the trade-off Fig. 14
  * measures.
  *
  * @param levelTgms  the TGM of each level; the last is `fine.tgm`
  * @param children   children(l)(g) = ids of level-(l+1) groups nested in
  *                   level-l group g
  * @param fine       the flat engine over the finest level, which verifies
  *                   the fine groups that survive
  */
final class HTGM private (val levelTgms: IndexedSeq[TGM],
                          children: IndexedSeq[Array[Array[Int]]],
                          fine: Les3Index) extends SimilarityIndex {

  private def lastLevel = levelTgms.length - 1

  /** kNN with hierarchical pruning; counts the same stats as [[Les3Index]]
    * (ubProbes counts cells probed across *all* levels).
    */
  def knn(q: Array[Int], k: Int): SearchResult = {
    SetOps.requireCanonical(q, "knn")
    val top = new TopK(k)
    val stats = search(q, top)
    SearchResult(top.hits, stats)
  }

  /** Range search with hierarchical pruning; hits come in best-first order. */
  def range(q: Array[Int], delta: Double): SearchResult = {
    SetOps.requireCanonical(q, "range")
    SetOps.requireDelta(delta, "range")
    val hits = new Within(delta)
    val stats = search(q, hits)
    SearchResult(hits.hits, stats)
  }

  /** The one walk of both searches: pops the highest-bound (level, group)
    * while its bound reaches `sink`'s bar. A coarse group's children are
    * probed ([[TGM.ub]]) and queued; a fine group is read by `fine`'s
    * store ([[GroupStore#Query.visit]]). Under range's fixed bar this
    * expands and reads exactly the groups a level-by-level walk would.
    */
  private def search(q: Array[Int], sink: Sink): SearchStats = {
    final case class Entry(level: Int, g: Int, ub: Double)
    val pq = mutable.PriorityQueue.empty[Entry]((a, b) => java.lang.Double.compare(a.ub, b.ub))
    val roots = levelTgms(0).ubs(q)
    var ubProbes = roots.length.toLong * q.length
    var g = 0
    while (g < roots.length) { pq.enqueue(Entry(0, g, roots(g))); g += 1 }
    fine.store.query(q) { v =>
      while (pq.nonEmpty && pq.head.ub >= sink.bar) {
        val e = pq.dequeue()
        if (e.level < lastLevel) {
          val tgmNext = levelTgms(e.level + 1)
          for (child <- children(e.level)(e.g)) {
            ubProbes += q.length
            pq.enqueue(Entry(e.level + 1, child, tgmNext.ub(q, child)))
          }
        } else v.visit(e.g, fine.tgm.measure, sink)
      }
      v.stats(ubProbes)
    }
  }
}

object HTGM {

  /** Build from nested groupings (coarse first). Verifies nesting: every
    * fine group must lie entirely inside one group of the previous level.
    */
  def build(db: collection.IndexedSeq[Array[Int]], levels: Seq[Grouping],
            measure: SetOps.Measure = SetOps.Jaccard): HTGM = {
    require(levels.nonEmpty, "need at least one level")
    val fine = new Les3Index(db, levels.last, measure)
    val tgms = levels.init.map(TGM.build(db, _, measure)).toIndexedSeq :+ fine.tgm
    val children: IndexedSeq[Array[Array[Int]]] =
      (if (levels.length < 2) Iterator.empty[Seq[Grouping]] else levels.sliding(2)).map {
        case Seq(coarse, fineG) =>
          val parentOf = new Array[Int](fineG.nGroups)
          java.util.Arrays.fill(parentOf, -1)
          var sid = 0
          while (sid < db.length) {
            val p = coarse.assignment(sid)
            val f = fineG.assignment(sid)
            require(parentOf(f) == -1 || parentOf(f) == p,
              s"grouping at level is not nested: fine group $f spans coarse groups")
            parentOf(f) = p
            sid += 1
          }
          val buckets = Array.fill(coarse.nGroups)(ArrayBuffer.empty[Int])
          for (f <- 0 until fineG.nGroups if parentOf(f) >= 0) buckets(parentOf(f)) += f
          buckets.map(_.toArray)
      }.toIndexedSeq
    new HTGM(tgms, children, fine)
  }
}
