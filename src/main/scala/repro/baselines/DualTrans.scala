package repro.baselines

import repro.core.{Hit, SearchResult, SearchStats, SetOps, SimilarityIndex, TopK}
import repro.io.IOModel
import repro.rtree.RTree
import scala.collection.mutable.ArrayBuffer

/** DualTrans — the tree-based baseline (§7.6, after Zhang et al. [73]):
  * every set is transformed into a d-dimensional vector and the vectors are
  * organized in an R-tree searched branch-and-bound.
  *
  * Transformation: tokens are assigned round-robin (in global-frequency
  * order) to d buckets and vec(S)[b] counts S's tokens in bucket b. For a
  * node MBR [lo, hi] this gives sound Jaccard bounds:
  * overlap ≤ Σ_b min(q[b], hi[b]) and |S| ≥ Σ_b lo[b], hence
  * UB = oUB / (|Q| + max(|S|_lb, oUB) − oUB) ≥ J(Q, S) for any S inside.
  * Small d ⇒ loose bounds; large d ⇒ heavily-overlapping MBRs — the
  * paper's explanation for DualTrans's weakness (§7.6) emerges naturally.
  */
final class DualTrans(db: collection.IndexedSeq[Array[Int]], val d: Int = 16,
                      io: IOModel = IOModel.InMemory, fanout: Int = 32)
    extends SimilarityIndex {

  private val nTokens: Int = {
    var max = -1
    for (s <- db; t <- s) if (t > max) max = t
    max + 1
  }

  // token → bucket, round-robin over the global-frequency order
  private val bucketOf: Array[Int] = {
    val freq = new Array[Int](math.max(1, nTokens))
    for (s <- db; t <- s) freq(t) += 1
    val order = Array.range(0, math.max(1, nTokens)).sortBy(t => (-freq(t), t))
    val b = new Array[Int](order.length)
    for (i <- order.indices) b(order(i)) = i % d
    b
  }

  private def vec(s: Array[Int]): Array[Int] = {
    val v = new Array[Int](d)
    var i = 0
    while (i < s.length) {
      if (s(i) < nTokens) v(bucketOf(s(i))) += 1
      i += 1
    }
    v
  }

  private val vectors: Array[Array[Int]] = db.iterator.map(vec).toArray
  val tree: RTree = RTree.bulkLoad(vectors, fanout)

  /** Index footprint (R-tree MBRs + the stored vectors). */
  def sizeBytes: Long = tree.sizeBytes + 4L * d * db.length

  private def nodeBytes(n: RTree.Node): Long = n match {
    case RTree.Leaf(ids, _, _) => ids.length * (2L * d * 4 + 8)
    case RTree.Inner(ch, _, _) => ch.length * (2L * d * 4 + 8)
  }

  private def jaccardUb(q: Array[Int], qVec: Array[Int], n: RTree.Node): Double = {
    var oUb = 0L
    var sLb = 0L
    var b = 0
    while (b < d) {
      oUb += math.min(qVec(b), n.hi(b))
      sLb += n.lo(b)
      b += 1
    }
    if (q.isEmpty) return 1.0
    val union = q.length + math.max(sLb, oUb) - oUb
    if (union <= 0) 1.0 else oUb.toDouble / union
  }

  def range(q: Array[Int], delta: Double): SearchResult = {
    SetOps.requireCanonical(q, "range")
    SetOps.requireDelta(delta, "range")
    val qVec = vec(q)
    val hits = ArrayBuffer.empty[Hit]
    var candidates = 0L
    var nodes = 0L
    var ioMs = 0.0
    tree.rangeSearch(jaccardUb(q, qVec, _), delta,
      onNode = { n => nodes += 1; ioMs += io.randomAccess(io.indexBytes(nodeBytes(n))) },
      onLeafId = { sid =>
        ioMs += io.randomAccess(io.dataBytes(db(sid).length, 1))
        val sim = SetOps.jaccard(q, db(sid))
        candidates += 1
        if (sim >= delta) hits += Hit(sid, sim)
      })
    SearchResult(hits, SearchStats(candidates, nodes, 0, ioMs))
  }

  def knn(q: Array[Int], k: Int): SearchResult = {
    SetOps.requireCanonical(q, "knn")
    val top = new TopK(k)
    val qVec = vec(q)
    var candidates = 0L
    var nodes = 0L
    var ioMs = 0.0
    tree.bestFirst(
      jaccardUb(q, qVec, _),
      continueWith = bound => !top.full || bound > top.min,
      onNode = { n => nodes += 1; ioMs += io.randomAccess(io.indexBytes(nodeBytes(n))) },
      onLeafId = { sid =>
        ioMs += io.randomAccess(io.dataBytes(db(sid).length, 1))
        candidates += 1
        top.offer(sid, SetOps.jaccard(q, db(sid)))
      })
    SearchResult(top.hits, SearchStats(candidates, nodes, 0, ioMs))
  }
}
