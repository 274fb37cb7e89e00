package repro.ml

import repro.core.SetOps
import scala.util.Random

/** One trained Siamese twin (§5.1): the shared MLP plus the input
  * standardization fitted on its training group. `side` is the group
  * assignment rule of §7.1: output < 0.5 → left (0), else right (1).
  *
  * `fallbackThreshold` replaces 0.5 when thresholding at 0.5 would leave a
  * side empty (the network is still a useful *ranking* in that case; we
  * split at the median output so the cascade can always make progress —
  * a degenerate case the paper does not discuss).
  */
final class SiameseModel(val net: MLP, mean: Array[Double], std: Array[Double],
                         val threshold: Double) extends Serializable {

  private[ml] def standardize(rep: Array[Double]): Array[Double] = {
    val out = new Array[Double](rep.length)
    var i = 0
    while (i < rep.length) { out(i) = (rep(i) - mean(i)) / std(i); i += 1 }
    out
  }

  /** Raw network output in (0, 1) for an (unstandardized) representation. */
  def output(rep: Array[Double]): Double = net.output(standardize(rep))

  /** 0 = left sub-group, 1 = right sub-group. */
  def side(rep: Array[Double]): Int = if (output(rep) < threshold) 0 else 1
}

/** Trainer for one Siamese bisection, following §5.1/§7.1: random pairs
  * from the group, the surrogate loss of Eq. 18
  * (W(Ox,Oy)·(1−Sim) when both outputs land on the same side, 0 otherwise,
  * with W = 0.5 − |Ox − Oy|), mini-batch Adam.
  */
object Siamese {

  /** @param pairs     training pairs sampled from the group (paper: 40,000)
    * @param batchSize mini-batch size (paper: 256)
    * @param epochs    training epochs (paper: 3)
    * @param lr        Adam learning rate
    * @param hidden    hidden layer sizes (paper: two layers of 8)
    * @param restarts  independent trainings; the model minimizing the
    *                  *original* Eq. 15 objective on the sampled pairs is
    *                  kept. The surrogate training is a local search (§5.1),
    *                  so restarts-with-model-selection materially stabilizes
    *                  the split without changing the objective.
    */
  final case class Config(pairs: Int = 40000, batchSize: Int = 256, epochs: Int = 3,
                          lr: Double = 0.05, hidden: Array[Int] = Array(8, 8),
                          restarts: Int = 3, seed: Long = 23)

  final case class TrainResult(model: SiameseModel, lossPerEpoch: Array[Double])

  /** Train a bisection model for the group `memberIds` (distinct ids into
    * `db`, with `reps(id)` the vector representation of set id).
    * Re-entrant: a call only reads `db` and `reps` and keeps its own state,
    * so several groups may train at once on different threads.
    */
  def train(memberIds: Array[Int], db: collection.IndexedSeq[Array[Int]],
            reps: Int => Array[Double], measure: SetOps.Measure,
            cfg: Config): TrainResult = {
    val n = memberIds.length
    require(n >= 2, "cannot bisect fewer than two sets")
    val matReps = memberIds.map(reps)
    val dim = matReps(0).length
    val rnd = new Random(cfg.seed)

    // Standardize inputs over the group (stabilizes sigmoid training).
    val mean = new Array[Double](dim)
    val std = new Array[Double](dim)
    for (rep <- matReps; i <- 0 until dim) mean(i) += rep(i)
    for (i <- 0 until dim) mean(i) /= n
    for (rep <- matReps; i <- 0 until dim) {
      val d = rep(i) - mean(i); std(i) += d * d
    }
    for (i <- 0 until dim) std(i) = math.max(1e-6, math.sqrt(std(i) / n))
    val zreps = matReps.map { rep =>
      val z = new Array[Double](dim)
      for (i <- 0 until dim) z(i) = (rep(i) - mean(i)) / std(i)
      z
    }

    // Sample training pairs (as member positions) with their precomputed
    // dissimilarities.
    val nPairs = math.min(cfg.pairs.toLong, 4L * n * n).toInt
    val pairX = new Array[Int](nPairs)
    val pairY = new Array[Int](nPairs)
    val dist = new Array[Double](nPairs)
    var p = 0
    while (p < nPairs) {
      val x = rnd.nextInt(n)
      var y = rnd.nextInt(n)
      while (y == x) y = rnd.nextInt(n)
      pairX(p) = x; pairY(p) = y
      dist(p) = 1.0 - measure.sim(db(memberIds(x)), db(memberIds(y)))
      p += 1
    }

    // Both take the network's outputs over the members, computed once per
    // epoch. Declared before trainOnce so per-epoch early stopping can use them.
    def thresholdFor(outputs: Array[Double]): Double = {
      // 0.5 unless it yields an empty side; then the median output.
      val left = outputs.count(_ < 0.5)
      if (left == 0 || left == n) {
        val sorted = outputs.sorted
        val med = sorted(n / 2)
        if (med == sorted(0)) (sorted(0) + sorted(n - 1)) / 2 else med
      } else 0.5
    }

    /** The original Eq. 15 objective realized on the sampled pairs. */
    def realizedLoss(outputs: Array[Double], threshold: Double): Double = {
      val left = outputs.map(_ < threshold)
      var s = 0.0
      var p2 = 0
      while (p2 < nPairs) {
        if (left(pairX(p2)) == left(pairY(p2))) s += dist(p2)
        p2 += 1
      }
      s
    }

    /** The best epoch's network, the loss curve, and the best epoch's
      * realized loss and threshold.
      */
    def trainOnce(runSeed: Long): (MLP, Array[Double], Double, Double) = {
    val rnd = new Random(runSeed)
    val net = new MLP(Array(dim) ++ cfg.hidden ++ Array(1), runSeed ^ 0x5ca1ab1eL)
    val adam = new Adam(net, cfg.lr)
    val lossPerEpoch = new Array[Double](cfg.epochs)
    val order = Array.range(0, nPairs)
    // Per-epoch early stopping against the realized Eq. 15 objective: the
    // surrogate dynamics keep pushing same-side pairs apart even after a
    // good split is reached, so the best epoch is often not the last.
    var bestSnapshot: Array[Array[Double]] = null
    var bestRealized = Double.MaxValue
    var bestThreshold = 0.0

    for (epoch <- 0 until cfg.epochs) {
      // shuffle pair order each epoch
      var i = nPairs - 1
      while (i > 0) { val j = rnd.nextInt(i + 1); val tmp = order(i); order(i) = order(j); order(j) = tmp; i -= 1 }
      var epochLoss = 0.0
      var start0 = 0
      while (start0 < nPairs) {
        val end = math.min(nPairs, start0 + cfg.batchSize)
        val grads = net.zeroGrads()
        var b = start0
        while (b < end) {
          val pi = order(b)
          val ax = net.forward(zreps(pairX(pi)))
          val ay = net.forward(zreps(pairY(pi)))
          val ox = ax(net.nLayers)(0)
          val oy = ay(net.nLayers)(0)
          val sameSide = (ox >= 0.5 && oy >= 0.5) || (ox < 0.5 && oy < 0.5)
          if (sameSide) {
            val d = dist(pi)
            epochLoss += (0.5 - math.abs(ox - oy)) * d
            // dL/dOx = −sign(Ox−Oy)·d ; dL/dOy = +sign(Ox−Oy)·d
            val sgn = math.signum(ox - oy)
            if (sgn != 0.0) {
              net.backward(ax, Array(-sgn * d), grads)
              net.backward(ay, Array(sgn * d), grads)
            }
          }
          b += 1
        }
        // mean gradient over the batch
        val bs = (end - start0).toDouble
        grads.foreach { g => var i2 = 0; while (i2 < g.length) { g(i2) /= bs; i2 += 1 } }
        adam.step(net.params, grads)
        start0 = end
      }
      lossPerEpoch(epoch) = epochLoss / nPairs
      val outputs = zreps.map(net.output)
      val threshold = thresholdFor(outputs)
      val realized = realizedLoss(outputs, threshold)
      if (realized < bestRealized) {
        bestRealized = realized
        bestThreshold = threshold
        bestSnapshot = net.params.map(_.clone())
      }
    }
    // restore the best epoch's parameters
    for (a <- net.params.indices) {
      System.arraycopy(bestSnapshot(a), 0, net.params(a), 0, net.params(a).length)
    }
    (net, lossPerEpoch, bestRealized, bestThreshold)
    }

    var bestModel: SiameseModel = null
    var bestLoss = Double.MaxValue
    var bestCurve: Array[Double] = null
    for (r <- 0 until math.max(1, cfg.restarts)) {
      val (net, curve, realized, threshold) = trainOnce(cfg.seed + 1000L * r)
      if (realized < bestLoss) {
        bestLoss = realized
        bestModel = new SiameseModel(net, mean, std, threshold)
        bestCurve = curve
      }
    }
    TrainResult(bestModel, bestCurve)
  }
}
