package repro.partition

import repro.core.{Grouping, SetOps}
import repro.embed.Embedder
import repro.ml.{Siamese, SiameseModel}

import java.util.stream.IntStream
import scala.collection.mutable.ArrayBuffer

/** L2P — Learn to Partition (§5.2): a cascade of Siamese networks that
  * hierarchically bisects the database until the target group count is
  * reached. Matches the paper's procedure:
  *
  *  - initialization (§7.1): sets sorted by their minimal token and cut
  *    into `initGroups` contiguous chunks (paper: 128 on full datasets);
  *  - each level trains one Siamese model per splittable group (≥
  *    `minGroupSize` = 50 sets) and bisects it. The level's models train
  *    in parallel, on the calling thread's ForkJoin pool if it runs in one
  *    and on the common pool otherwise. Their seeds are drawn in frontier
  *    order before the level fans out, so the groupings, models and loss
  *    curves are bit-identical at any pool size;
  *  - per-level groupings are retained so an [[repro.core.HTGM]] can be
  *    built from any pair of levels.
  *
  * The trained artifact [[L2PModel]] is serializable and broadcastable: it
  * assigns *new* sets to groups (used by the Spark group-assignment UDF and
  * could serve §6-style insertion), by locating the min-token init chunk
  * and descending that chunk's model tree.
  */
object L2P {

  /** @param maxGroupFactor after the target group count is reached, keep
    *        splitting any group larger than `maxGroupFactor · |D| / target`
    *        — the paper's cascade stops on *size* ("until all groups are
    *        small enough"), and Theorem 4.2 requires balanced groups.
    */
  final case class Config(targetGroups: Int,
                          initGroups: Int = 8,
                          minGroupSize: Int = 50,
                          maxGroupFactor: Double = 4.0,
                          siamese: Siamese.Config = Siamese.Config(),
                          measure: SetOps.Measure = SetOps.Jaccard,
                          seed: Long = 41)

  /** Binary decision tree over one init chunk. */
  sealed trait Node extends Serializable
  final case class Leaf(groupId: Int) extends Node
  final case class Split(model: SiameseModel, left: Node, right: Node) extends Node

  /** The deployable partitioner. `initUpperMinToken(i)` is the largest
    * min-token routed to init chunk i (chunks ordered by min-token).
    */
  final class L2PModel(val embedder: Embedder,
                       val initUpperMinToken: Array[Int],
                       val trees: Array[Node],
                       val nGroups: Int) extends Serializable {
    def assign(tokens: Array[Int]): Int = {
      val minTok = if (tokens.isEmpty) 0 else tokens.min
      var chunk = java.util.Arrays.binarySearch(initUpperMinToken, minTok)
      if (chunk < 0) chunk = -(chunk + 1)
      if (chunk >= trees.length) chunk = trees.length - 1
      val rep = embedder.embed(tokens)
      var node = trees(chunk)
      while (true) {
        node match {
          case Leaf(g) => return g
          case Split(m, l, r) => node = if (m.side(rep) == 0) l else r
        }
      }
      -1 // unreachable
    }
  }

  final case class Result(grouping: Grouping,
                          levels: Seq[Grouping],
                          model: L2PModel,
                          modelsTrained: Int,
                          lossCurves: Seq[Array[Double]])

  /** `frozen` marks a group whose Siamese model could not separate its
    * members (identical outputs for every member — e.g. duplicate sets or
    * colliding representations); it stays a leaf so inference and training
    * assignments always agree.
    */
  private final case class WorkGroup(chunk: Int, members: Array[Int], node: MutableNode,
                                     frozen: Boolean = false)

  // Mutable tree under construction, frozen into Node at the end.
  private final class MutableNode {
    var model: SiameseModel = _
    var left: MutableNode = _
    var right: MutableNode = _
    var groupId: Int = -1
    def freeze(): Node =
      if (model == null) Leaf(groupId) else Split(model, left.freeze(), right.freeze())
  }

  /** Run the cascade on `db` with representations from `embedder`.
    * `db` must not change while it runs: the level's training tasks read
    * it from several threads at once.
    */
  def partition(db: collection.IndexedSeq[Array[Int]], embedder: Embedder, cfg: Config): Result =
    partitionWithReps(db, embedder, Array.tabulate(db.length)(i => embedder.embed(db(i))), cfg)

  /** Run the cascade with representations computed elsewhere (used by the
    * §7.3 comparison, where embedding cost is measured separately).
    * `embedder` is still carried into the deployable model for inference
    * on new sets. Neither `db` nor `reps` may change while it runs.
    */
  def partitionWithReps(db: collection.IndexedSeq[Array[Int]], embedder: Embedder,
                        reps: Array[Array[Double]], cfg: Config): Result = {
    val n = db.length
    require(n > 0 && reps.length == n)

    // --- initialization: min-token sort → contiguous chunks ---
    // Chunk boundaries only fall between *different* min-tokens, so routing
    // a set by its min-token (L2PModel.assign) is always consistent with
    // the chunk it trained in.
    val minTok = Array.tabulate(n)(i => if (db(i).isEmpty) 0 else db(i).min)
    val order = Array.range(0, n).sortBy(minTok(_))
    val requested = math.min(cfg.initGroups, n)
    val chunks = ArrayBuffer.empty[Array[Int]]
    var pos = 0
    var c = 0
    while (pos < n) {
      var end = math.max(pos + 1, ((c + 1).toLong * n / requested).toInt)
      while (end < n && minTok(order(end)) == minTok(order(end - 1))) end += 1
      chunks += order.slice(pos, math.min(end, n))
      pos = math.min(end, n)
      c += 1
    }
    val nInit = chunks.length
    val initAssignment = new Array[Int](n)
    for (ch <- 0 until nInit; sid <- chunks(ch)) initAssignment(sid) = ch
    val initGrouping = new Grouping(initAssignment, nInit)
    val initUpper = Array.tabulate(nInit)(ch => minTok(chunks(ch).last))
    initUpper(nInit - 1) = Int.MaxValue // last chunk is open-ended

    // --- cascade ---
    val roots = Array.fill(nInit)(new MutableNode)
    var frontier: ArrayBuffer[WorkGroup] = ArrayBuffer.tabulate(nInit) { c =>
      WorkGroup(c, initGrouping.members(c), roots(c))
    }
    val levels = ArrayBuffer[Seq[Array[Int]]](frontier.map(_.members).toSeq)
    val lossCurves = ArrayBuffer.empty[Array[Double]]
    var modelsTrained = 0
    var levelSeed = cfg.seed

    def splittable(w: WorkGroup): Boolean =
      !w.frozen && w.members.length >= cfg.minGroupSize

    // Level-synchronous cascade (§5.2): at each level, bisect every group
    // that is still splittable until the target group count is reached
    // (the paper's 2^i-groups-at-level-i construction); past the target,
    // keep bisecting only oversized groups (the paper stops on size).
    val maxGroupSize = math.max(cfg.minGroupSize,
      math.ceil(cfg.maxGroupFactor * n / cfg.targetGroups).toInt)
    def oversized(w: WorkGroup): Boolean = w.members.length > maxGroupSize
    while (frontier.exists(w => splittable(w) &&
             (frontier.length < cfg.targetGroups || oversized(w)))) {
      val splitAll = frontier.length < cfg.targetGroups
      def toSplit(w: WorkGroup): Boolean = splittable(w) && (splitAll || oversized(w))
      // The level's models share no state, so they train in parallel. Their
      // seeds are drawn in frontier order first, so each model gets the
      // seed, and hence the split, it would get trained one after another.
      val work = frontier.filter(toSplit).toArray
      val seeds = work.map { _ => levelSeed += 1; cfg.siamese.seed ^ levelSeed }
      val trained = new Array[(Siamese.TrainResult, Array[Int], Array[Int])](work.length)
      IntStream.range(0, work.length).parallel().forEach { i =>
        val members = work(i).members
        val tr = Siamese.train(members, db, reps(_), cfg.measure, cfg.siamese.copy(seed = seeds(i)))
        val (leftB, rightB) = members.partition(id => tr.model.side(reps(id)) == 0)
        trained(i) = (tr, leftB, rightB)
      }
      val results = trained.iterator
      val next = ArrayBuffer.empty[WorkGroup]
      for (w <- frontier) {
        if (!toSplit(w)) next += w
        else {
          val (tr, leftB, rightB) = results.next()
          modelsTrained += 1
          lossCurves += tr.lossPerEpoch
          if (leftB.isEmpty || rightB.isEmpty) {
            // Fully degenerate model: every member produced the same output
            // even after the median-threshold fallback (duplicate sets or
            // colliding representations). Freeze the group as a leaf so
            // inference on its members stays consistent with training.
            next += w.copy(frozen = true)
          } else {
            w.node.model = tr.model
            w.node.left = new MutableNode
            w.node.right = new MutableNode
            next += WorkGroup(w.chunk, leftB, w.node.left)
            next += WorkGroup(w.chunk, rightB, w.node.right)
          }
        }
      }
      frontier = next
      levels += frontier.map(_.members).toSeq
    }

    // --- freeze groups & build outputs ---
    val assignment = new Array[Int](n)
    frontier.zipWithIndex.foreach { case (w, g) =>
      w.node.groupId = g
      w.members.foreach(assignment(_) = g)
    }
    val finalGrouping = new Grouping(assignment, frontier.length)
    val levelGroupings = levels.map { groups =>
      val a = new Array[Int](n)
      groups.zipWithIndex.foreach { case (m, g) => m.foreach(a(_) = g) }
      new Grouping(a, groups.length)
    }.toSeq
    val model = new L2PModel(embedder, initUpper, roots.map(_.freeze()), frontier.length)
    Result(finalGrouping, levelGroupings, model, modelsTrained, lossCurves.toSeq)
  }
}
