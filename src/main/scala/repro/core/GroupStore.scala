package repro.core

import repro.io.IOModel
import scala.collection.mutable.ArrayBuffer

/** The groups of one engine, each stored as a [[GroupBlock]], and the
  * filter-and-verify loops of §3.1 over them: the one verification core.
  * [[Les3Index]] runs it over its database, [[HTGM]] over the fine groups
  * that survive its hierarchy, and [[SparkSearch]] over each partition's
  * rows. The store of `sets` partitioned by `grouping` holds one block per
  * group; a member's id, which its hits carry, is its position in `sets`.
  * The store has no measure and no bounds of its own: each search takes
  * the group bounds it prunes with and the measure it verifies under.
  *
  * Verification reads Q as a token bitmap ([[Query]]), marked once per
  * query in a scratch array of the calling thread, so a member's overlap
  * costs one bit test per member token.
  *
  * Concurrent searches are safe; [[GroupBlock.insert]] needs a single
  * writer and no search running at the same time.
  */
private[core] final class GroupStore(sets: collection.IndexedSeq[Array[Int]], grouping: Grouping, io: IOModel) {

  val blocks: Array[GroupBlock] = grouping.members.map(m => GroupBlock.build(m, m.map(sets)))

  private def requireBounds(ubs: Array[Double]): Unit =
    require(ubs.length >= blocks.length, s"${ubs.length} group bounds cannot bound ${blocks.length} blocks")

  /** Range search (Definition 2.2) over every group, `ubs(g)` being group
    * g's bound ([[TGM.ubs]]): verify under `measure` exactly the groups
    * whose bound reaches δ.
    */
  def searchRange(q: Array[Int], ubs: Array[Double], measure: SetOps.Measure, delta: Double,
                  hits: ArrayBuffer[Hit]): SearchStats = {
    requireBounds(ubs)
    query(q)(_.range(Array.range(0, blocks.length), ubs, measure, delta, hits, SearchStats(0, 0, 0, 0.0)))
  }

  /** kNN search (Definition 2.1) over every group, `ubs(g)` being group
    * g's bound: visit groups in descending-bound order ([[Query.knn]]).
    */
  def searchKnn(q: Array[Int], ubs: Array[Double], measure: SetOps.Measure, top: TopK): SearchStats = {
    requireBounds(ubs)
    val order = GroupStore.descending(ubs, blocks.length)
    val orderedUbs = new Array[Double](order.length)
    var j = 0
    while (j < order.length) { orderedUbs(j) = ubs(order(j)); j += 1 }
    query(q)(_.knn(order, orderedUbs, measure, top, SearchStats(0, blocks.length.toLong * q.length, 0, 0.0)))
  }

  /** Runs `body` on `q` (canonical) marked as a [[Query]] in this
    * thread's scratch, and clears the marks however `body` ends: the one
    * per-query entry to verification. `body` must not start another query
    * on the same thread: the two would share the scratch.
    */
  def query[T](q: Array[Int])(body: Query => T): T = {
    val v = new Query(q)
    try body(v) finally v.clear()
  }

  /** Query `q` as a token bitmap in this thread's scratch: bit t of word
    * t >>> 6 is set iff t ∈ Q, for every t the scratch covers. The scratch
    * grows to cover a block's [[GroupBlock.topToken]] before that block is
    * read, and Q's tokens are marked as it comes to cover them, so every
    * member token read has its bit. A query token above every member's
    * is never tested, marked or not.
    */
  final class Query private[GroupStore] (q: Array[Int]) {
    private var bits = GroupStore.scratch.get()
    // q(0 until marked) are marked: the tokens below the scratch's cover.
    private var marked = 0

    /** Grows the scratch to cover `b`'s tokens and marks the query tokens
      * it newly covers.
      */
    private def cover(b: GroupBlock): Unit = {
      val words = (b.topToken >> 6) + 1
      if (words > bits.length) {
        bits = java.util.Arrays.copyOf(bits, words)
        GroupStore.scratch.set(bits)
      }
      val limit = bits.length.toLong << 6
      while (marked < q.length && q(marked) < limit) {
        val t = q(marked)
        bits(t >>> 6) |= 1L << t
        marked += 1
      }
    }

    /** Zeroes the words of the marked tokens: O(|Q|). */
    private[GroupStore] def clear(): Unit = {
      var j = 0
      while (j < marked) { bits(q(j) >>> 6) = 0L; j += 1 }
      marked = 0
    }

    /** |Q ∩ member `i` of group `g`|. */
    def overlap(g: Int, i: Int): Int = {
      val b = blocks(g)
      cover(b)
      b.overlap(i, bits)
    }

    /** Reads the non-empty groups of `gs` whose bound reaches δ, `ubs(j)`
      * being the bound of `gs(j)`: their members are candidates, those
      * whose size bound reaches δ are verified under `measure`, and those
      * with sim ≥ δ join `hits`. Returns `s` plus the probes and reads.
      */
    def range(gs: Array[Int], ubs: Array[Double], measure: SetOps.Measure, delta: Double,
              hits: ArrayBuffer[Hit], s: SearchStats): SearchStats = {
      var candidates = 0L
      var verified = 0L
      var groupsRead = 0
      var ioMs = 0.0
      var j = 0
      while (j < gs.length) {
        val b = blocks(gs(j))
        if (ubs(j) >= delta && b.n > 0) {
          cover(b)
          groupsRead += 1
          ioMs += io.randomAccess(io.dataBytes(b.nTokens, b.n))
          candidates += b.n
          // The qualifying sizes are one run: it ends at the first failing
          // member past firstFit, which is larger than Q.
          var i = b.firstFit(measure, q.length, delta)
          while (i < b.n && measure.sizeUb(q.length, b.size(i)) >= delta) {
            val sim = measure.simFromOverlap(b.overlap(i, bits), q.length, b.size(i))
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
      * under `measure`. Exact: any unvisited set has sim ≤ UB(group) ≤
      * kth-best — a set tying the kth-best is interchangeable with it under
      * Definition 2.1, so the cut uses ≤. Returns `s` plus the reads.
      */
    def knn(gs: Array[Int], ubs: Array[Double], measure: SetOps.Measure, top: TopK,
            s: SearchStats): SearchStats = {
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
          cover(b)
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
              top.offer(b.sids(i), measure.simFromOverlap(b.overlap(i, bits), q.length, r))
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
}

private[core] object GroupStore {

  /** Each thread's query bitmap, all zero between queries. It holds
    * ⌈(t + 1)/64⌉ longs for the largest member token t the thread has
    * read, about (t + 1)/8 bytes: 8 MiB at the ≈67M-token cap of
    * [[TGM.MaxColumnLongs]], once per thread that searches (so once per
    * Spark executor thread).
    */
  private val scratch: ThreadLocal[Array[Long]] = ThreadLocal.withInitial(() => new Array[Long](0))

  /** Groups `0 until n` by descending `ubs`, ties by ascending id: the
    * order of a stable sort on -ubs(g), without boxing. Each key packs
    * the number of bounds above ubs(g) over g. Bounds are never NaN.
    */
  def descending(ubs: Array[Double], n: Int): Array[Int] = {
    val sorted = java.util.Arrays.copyOf(ubs, n)
    java.util.Arrays.sort(sorted)
    val keys = new Array[Long](n)
    var g = 0
    while (g < n) {
      val u = ubs(g)
      var a = 0; var b = n
      while (a < b) {
        val mid = (a + b) >>> 1
        if (sorted(mid) <= u) a = mid + 1 else b = mid
      }
      keys(g) = (n - a).toLong << 32 | g
      g += 1
    }
    java.util.Arrays.sort(keys)
    val order = new Array[Int](n)
    g = 0
    while (g < n) { order(g) = keys(g).toInt; g += 1 }
    order
  }
}
