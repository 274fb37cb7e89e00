package repro.core

import repro.io.IOModel
import scala.collection.mutable.ArrayBuffer

/** The groups of one engine, each stored as a [[GroupBlock]], and the
  * filter-and-verify loops of §3.1 over them: the one verification core.
  * [[Les3Index]] runs it over its database, [[HTGM]] over the fine groups
  * that survive its hierarchy, and [[SparkSearch]] over each partition's
  * rows. The store of `sets` partitioned by `grouping` holds one block per
  * group; a member's id, which its hits carry, is its position in `sets`.
  * The store has no measure of its own: each search verifies with the
  * measure of the TGM whose bounds it uses.
  *
  * Concurrent searches are safe; [[GroupBlock.insert]] needs a single
  * writer and no search running at the same time.
  */
private[core] final class GroupStore(sets: collection.IndexedSeq[Array[Int]], grouping: Grouping, io: IOModel) {

  val blocks: Array[GroupBlock] = grouping.members.map(m => GroupBlock.build(m, m.map(sets)))

  /** [[TGM.ubs]] of `q`, once `tgm` is known to bound every block. */
  private def bounds(q: Array[Int], tgm: TGM): Array[Double] = {
    require(tgm.nGroups >= blocks.length, s"${tgm.nGroups} TGM groups cannot bound ${blocks.length} blocks")
    tgm.ubs(q)
  }

  /** Range search (Definition 2.2) over every group under `tgm`'s bounds
    * and measure: verify exactly the groups whose bound reaches δ.
    */
  def searchRange(q: Array[Int], tgm: TGM, delta: Double, hits: ArrayBuffer[Hit]): SearchStats =
    verifyRange(q, Array.range(0, blocks.length), bounds(q, tgm), tgm.measure, delta, hits,
                SearchStats(0, 0, 0, 0.0))

  /** kNN search (Definition 2.1) over every group under `tgm`'s bounds and
    * measure: visit groups in descending-bound order ([[verifyKnn]]).
    */
  def searchKnn(q: Array[Int], tgm: TGM, top: TopK): SearchStats = {
    val ubs = bounds(q, tgm)
    val order = Array.range(0, blocks.length).sortBy(g => -ubs(g))
    verifyKnn(q, order, order.map(ubs), tgm.measure, top,
              SearchStats(0, blocks.length.toLong * q.length, 0, 0.0))
  }

  /** Reads the non-empty groups of `gs` whose bound reaches δ, `ubs(j)`
    * being the bound of `gs(j)`: their members are candidates, those whose
    * size bound reaches δ are verified under `measure`, and those with
    * sim ≥ δ join `hits`. Returns `s` plus the probes and reads.
    */
  def verifyRange(q: Array[Int], gs: Array[Int], ubs: Array[Double], measure: SetOps.Measure,
                  delta: Double, hits: ArrayBuffer[Hit], s: SearchStats): SearchStats = {
    var candidates = 0L
    var verified = 0L
    var groupsRead = 0
    var ioMs = 0.0
    var j = 0
    while (j < gs.length) {
      val b = blocks(gs(j))
      if (ubs(j) >= delta && b.n > 0) {
        groupsRead += 1
        ioMs += io.randomAccess(io.dataBytes(b.nTokens, b.n))
        candidates += b.n
        // The qualifying sizes are one run: it ends at the first failing
        // member past firstFit, which is larger than Q.
        var i = b.firstFit(measure, q.length, delta)
        while (i < b.n && measure.sizeUb(q.length, b.size(i)) >= delta) {
          val sim = b.sim(i, q, measure)
          verified += 1
          if (sim >= delta) hits += Hit(b.sids(i), sim)
          i += 1
        }
      }
      j += 1
    }
    SearchStats(s.candidates + candidates, s.ubProbes + gs.length.toLong * q.length,
                s.groupsRead + groupsRead, s.ioMs + ioMs, s.verified + verified)
  }

  /** Visits the groups `gs` in order for a kNN query, `ubs(j)` being the
    * bound of `gs(j)`: stops at the first bound that cannot beat the
    * kth-best similarity, and reads the other non-empty groups, offering
    * to `top` every member whose size bound beats the kth-best, verified
    * under `measure`. Exact: any
    * unvisited set has sim ≤ UB(group) ≤ kth-best — a set tying the
    * kth-best is interchangeable with it under Definition 2.1, so the cut
    * uses ≤. Returns `s` plus the reads.
    */
  def verifyKnn(q: Array[Int], gs: Array[Int], ubs: Array[Double], measure: SetOps.Measure,
                top: TopK, s: SearchStats): SearchStats = {
    var candidates = 0L
    var verified = 0L
    var groupsRead = 0
    var ioMs = 0.0
    var j = 0
    var done = false
    while (j < gs.length && !done) {
      val b = blocks(gs(j))
      if (top.full && ubs(j) <= top.min) done = true
      else if (b.n > 0) {
        groupsRead += 1
        ioMs += io.randomAccess(io.dataBytes(b.nTokens, b.n))
        candidates += b.n
        // A member can enter `top` only if its size bound beats the
        // kth-best: sizeUb > min ⇔ sizeUb ≥ nextUp(min). The bar rises as
        // `top` fills, so smaller members may fail after firstFit, but the
        // first failing member larger than Q ends the run.
        var lo = if (top.full) Math.nextUp(top.min) else Double.NegativeInfinity
        var i = b.firstFit(measure, q.length, lo)
        var more = true
        while (i < b.n && more) {
          val r = b.size(i)
          if (measure.sizeUb(q.length, r) >= lo) {
            verified += 1
            top.offer(b.sids(i), b.sim(i, q, measure))
            if (top.full) lo = Math.nextUp(top.min)
          } else more = r < q.length
          i += 1
        }
      }
      j += 1
    }
    SearchStats(s.candidates + candidates, s.ubProbes, s.groupsRead + groupsRead, s.ioMs + ioMs,
                s.verified + verified)
  }
}
