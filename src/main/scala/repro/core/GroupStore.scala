package repro.core

import repro.io.IOModel

/** The groups of one engine, each stored as a [[GroupBlock]], and the
  * filter-and-verify step of §3.1 over them: the one verification core,
  * whose one group read ([[Query.visit]]) serves range and kNN alike.
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
    * g's bound ([[TGM.ubs]]): visits, in id order, exactly the groups whose
    * bound reaches δ, verifying under `measure` into `hits`.
    */
  def searchRange(q: Array[Int], ubs: Array[Double], measure: SetOps.Measure, hits: Within): SearchStats = {
    requireBounds(ubs)
    val delta = hits.bar
    query(q) { v =>
      var g = 0
      while (g < blocks.length) {
        if (ubs(g) >= delta) v.visit(g, measure, hits)
        g += 1
      }
      v.stats(blocks.length.toLong * q.length)
    }
  }

  /** kNN search (Definition 2.1) over every group, `ubs(g)` being group
    * g's bound: visits groups in descending-bound order and stops at the
    * first whose bound is below `top`'s bar. Exact: any unvisited set has
    * sim ≤ UB(group) ≤ kth-best, and a set tying the kth-best is
    * interchangeable with it under Definition 2.1.
    */
  def searchKnn(q: Array[Int], ubs: Array[Double], measure: SetOps.Measure, top: TopK): SearchStats = {
    requireBounds(ubs)
    val order = GroupStore.descending(ubs, blocks.length)
    query(q) { v =>
      var j = 0
      while (j < order.length && ubs(order(j)) >= top.bar) {
        v.visit(order(j), measure, top)
        j += 1
      }
      v.stats(blocks.length.toLong * q.length)
    }
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
    private var candidates = 0L
    private var verified = 0L
    private var groupsRead = 0
    private var ioMs = 0.0

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

    /** Reads group `g`, unless it is empty: its members are candidates,
      * and each whose size bound reaches `sink`'s bar is verified under
      * `measure` and offered to `sink`. The bar is read again after every
      * offer; the sizes that reach it start at [[GroupBlock.firstFit]], and
      * the first failing member larger than Q ends them. The caller tests
      * the group's own bound against the bar.
      */
    def visit(g: Int, measure: SetOps.Measure, sink: Sink): Unit = {
      val b = blocks(g)
      if (b.n > 0) {
        cover(b)
        groupsRead += 1
        ioMs += io.randomAccess(io.dataBytes(b.nTokens, b.n))
        candidates += b.n
        var bar = sink.bar
        var i = b.firstFit(measure, q.length, bar)
        var more = true
        while (i < b.n && more) {
          val r = b.size(i)
          if (measure.sizeUb(q.length, r) >= bar) {
            verified += 1
            sink.offer(b.sids(i), measure.simFromOverlap(b.overlap(i, bits), q.length, r))
            bar = sink.bar
          } else more = r < q.length
          i += 1
        }
      }
    }

    /** The reads of this query so far, with `ubProbes` bound probes. */
    def stats(ubProbes: Long): SearchStats = SearchStats(candidates, ubProbes, groupsRead, ioMs, verified)
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
