package repro.rtree

import scala.collection.mutable

/** A from-scratch R-tree over integer points, bulk-loaded with the
  * Sort-Tile-Recursive (STR) algorithm. Substrate for the DualTrans
  * baseline (§7.6), which organizes transformed set-vectors in an R-tree.
  *
  * Search is generic: callers supply a node scorer (an upper bound valid
  * for every point inside the node's MBR) and a point scorer, and the tree
  * runs best-first branch-and-bound — covering both range and kNN search.
  */
final class RTree private (val root: RTree.Node, val dim: Int, val fanout: Int) {

  import RTree._

  /** Total index footprint: per entry an MBR (2·dim·4 B) + an 8 B pointer. */
  def sizeBytes: Long = {
    def walk(n: Node): Long = n match {
      case Leaf(ids, _, _) => ids.length * (2L * dim * 4 + 8)
      case Inner(children, _, _) =>
        children.map(c => 2L * dim * 4 + 8 + walk(c)).sum
    }
    2L * dim * 4 + 8 + walk(root)
  }

  def nodeCount: Int = {
    def walk(n: Node): Int = n match {
      case _: Leaf => 1
      case Inner(children, _, _) => 1 + children.map(walk).sum
    }
    walk(root)
  }

  /** Collect all point ids in nodes whose score reaches `threshold`,
    * invoking `onNode` per visited node and `onLeafId` per candidate.
    */
  def rangeSearch(nodeUb: Node => Double, threshold: Double,
                  onNode: Node => Unit, onLeafId: Int => Unit): Unit = {
    def walk(n: Node): Unit = {
      onNode(n)
      if (nodeUb(n) >= threshold) n match {
        case Leaf(ids, _, _) => ids.foreach(onLeafId)
        case Inner(children, _, _) => children.foreach(walk)
      }
    }
    walk(root)
  }

  /** Best-first traversal: repeatedly expand the highest-bound node until
    * `continueWith(bound)` says the bound can no longer help. `onLeafId`
    * processes candidates and typically tightens the caller's threshold.
    */
  def bestFirst(nodeUb: Node => Double, continueWith: Double => Boolean,
                onNode: Node => Unit, onLeafId: Int => Unit): Unit = {
    val pq = mutable.PriorityQueue.empty[(Double, Node)](Ordering.by(_._1))
    pq.enqueue((nodeUb(root), root))
    var done = false
    while (pq.nonEmpty && !done) {
      val (bound, n) = pq.dequeue()
      if (!continueWith(bound)) done = true
      else {
        onNode(n)
        n match {
          case Leaf(ids, _, _) => ids.foreach(onLeafId)
          case Inner(children, _, _) =>
            children.foreach(c => pq.enqueue((nodeUb(c), c)))
        }
      }
    }
  }
}

object RTree {

  /** Tree node with its MBR (inclusive lo/hi per dimension). */
  sealed trait Node { def lo: Array[Int]; def hi: Array[Int] }
  final case class Leaf(ids: Array[Int], lo: Array[Int], hi: Array[Int]) extends Node
  final case class Inner(children: Array[Node], lo: Array[Int], hi: Array[Int]) extends Node

  private def mbrOfPoints(points: Array[Array[Int]], ids: Array[Int]): (Array[Int], Array[Int]) = {
    val dim = points(ids(0)).length
    val lo = Array.fill(dim)(Int.MaxValue)
    val hi = Array.fill(dim)(Int.MinValue)
    for (id <- ids; d <- 0 until dim) {
      val v = points(id)(d)
      if (v < lo(d)) lo(d) = v
      if (v > hi(d)) hi(d) = v
    }
    (lo, hi)
  }

  private def mbrOfNodes(nodes: Array[Node]): (Array[Int], Array[Int]) = {
    val dim = nodes(0).lo.length
    val lo = Array.fill(dim)(Int.MaxValue)
    val hi = Array.fill(dim)(Int.MinValue)
    for (n <- nodes; d <- 0 until dim) {
      if (n.lo(d) < lo(d)) lo(d) = n.lo(d)
      if (n.hi(d) > hi(d)) hi(d) = n.hi(d)
    }
    (lo, hi)
  }

  /** STR bulk load: sort by dim 0, slice, sort slices by dim 1, … pack
    * leaves of `fanout` points, then pack upward.
    */
  def bulkLoad(points: Array[Array[Int]], fanout: Int = 32): RTree = {
    require(points.nonEmpty, "empty point set")
    val dim = points(0).length

    def tile(ids: Array[Int], level: Int): Array[Array[Int]] = {
      // Recursive STR tiling: produce runs of ≤ fanout ids.
      if (ids.length <= fanout) return Array(ids)
      val d = level % dim
      val sorted = ids.sortBy(points(_)(d))
      val nRuns = math.ceil(ids.length.toDouble / fanout).toInt
      val nSlices = math.max(1, math.ceil(math.pow(nRuns, 1.0 / math.max(1, dim - level % dim))).toInt)
      val sliceSize = math.ceil(sorted.length.toDouble / nSlices).toInt
      sorted.grouped(sliceSize).flatMap { slice =>
        if (level % dim == dim - 1 || slice.length <= fanout) slice.grouped(fanout)
        else tile(slice, level + 1).iterator
      }.toArray
    }

    val leaves: Array[Node] = tile(Array.range(0, points.length), 0).map { ids =>
      val (lo, hi) = mbrOfPoints(points, ids)
      Leaf(ids, lo, hi): Node
    }

    var level: Array[Node] = leaves
    while (level.length > 1) {
      // Pack upper levels by center of first dimension (simple STR pass).
      val sorted = level.sortBy(n => (n.lo(0).toLong + n.hi(0)) / 2)
      level = sorted.grouped(fanout).map { group =>
        val (lo, hi) = mbrOfNodes(group)
        Inner(group, lo, hi): Node
      }.toArray
    }
    new RTree(level(0), dim, fanout)
  }
}
