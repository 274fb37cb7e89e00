package repro.core

/** One group of a [[GroupStore]] stored as one contiguous block, the
  * paper's group layout (§7.6), in CSR form: member `i` is set `sids(i)`,
  * whose tokens are `tokens(offsets(i) until offsets(i + 1))`.
  *
  * Members are kept in (set size, sid) order. A set's size is then read
  * from `offsets` alone, and since a measure's size bound rises with |R|
  * up to |Q| and falls after (see [[SetOps.Measure]]), the sizes that can
  * reach a threshold form one run of the block. `offsets` and `tokens`
  * carry spare capacity, so a §6 insert shifts the tail of the block
  * instead of rebuilding it; `sids` is replaced, never written, so a
  * reader may hold it as an immutable snapshot.
  */
private[core] final class GroupBlock private (var sids: Array[Int], private var offsets: Array[Int],
                                              private var tokens: Array[Int]) {

  def n: Int = sids.length
  def size(i: Int): Int = offsets(i + 1) - offsets(i)
  /** The tokens of all members together. */
  def nTokens: Int = offsets(n)

  /** Similarity of member `i` to `q`, bit-identical to `measure.sim`. */
  def sim(i: Int, q: Array[Int], measure: SetOps.Measure): Double =
    measure.simFromOverlap(SetOps.intersectSize(q, tokens, offsets(i), offsets(i + 1)),
                           q.length, size(i))

  /** The first member whose size is at least |Q| or has a size bound of at
    * least `lo`; every member before it is smaller and has a lower bound.
    */
  def firstFit(measure: SetOps.Measure, qSize: Int, lo: Double): Int = {
    var a = 0; var b = n
    while (a < b) {
      val mid = (a + b) >>> 1
      val r = size(mid)
      if (r >= qSize || measure.sizeUb(qSize, r) >= lo) b = mid else a = mid + 1
    }
    a
  }

  /** Adds set `sid`, larger than every member's sid, after the members of
    * its size or smaller.
    */
  def insert(sid: Int, set: Array[Int]): Unit = {
    val s = set.length
    var p = 0; var b = n
    while (p < b) {
      val mid = (p + b) >>> 1
      if (size(mid) <= s) p = mid + 1 else b = mid
    }
    val end = offsets(n)
    if (n + 2 > offsets.length) offsets = java.util.Arrays.copyOf(offsets, 2 * n + 2)
    if (end + s > tokens.length) tokens = java.util.Arrays.copyOf(tokens, math.max(end + s, 2 * end))
    val at = offsets(p)
    System.arraycopy(tokens, at, tokens, at + s, end - at)
    System.arraycopy(set, 0, tokens, at, s)
    var i = n + 1
    while (i > p) { offsets(i) = offsets(i - 1) + s; i -= 1 }
    val next = new Array[Int](n + 1)
    System.arraycopy(sids, 0, next, 0, p)
    next(p) = sid
    System.arraycopy(sids, p, next, p + 1, n - p)
    sids = next
  }
}

private[core] object GroupBlock {

  /** The block of the sets `sets(i)`, with ids `ids(i)` in ascending order. */
  def build(ids: Array[Int], sets: Array[Array[Int]]): GroupBlock = {
    // (size, position) packed in one long sorts without boxing; ascending
    // ids make that the (size, id) order.
    val keys = Array.tabulate(ids.length)(i => sets(i).length.toLong << 32 | i)
    java.util.Arrays.sort(keys)
    val order = keys.map(_.toInt)
    val offsets = new Array[Int](order.length + 1)
    var i = 0
    while (i < order.length) { offsets(i + 1) = offsets(i) + sets(order(i)).length; i += 1 }
    val tokens = new Array[Int](offsets(order.length))
    i = 0
    while (i < order.length) {
      System.arraycopy(sets(order(i)), 0, tokens, offsets(i), offsets(i + 1) - offsets(i))
      i += 1
    }
    new GroupBlock(order.map(i => ids(i)), offsets, tokens)
  }
}
