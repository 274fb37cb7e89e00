package repro.partition

import repro.core.{Grouping, SetOps}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** PAR-A — agglomerative clustering (§4.3.4): start from singletons and
  * repeatedly merge, with the paper's simplification that G₁* is always the
  * smallest current group (ties broken randomly) and only its best merge
  * partner G₂* is searched; φ of a merge is estimated as
  * φ(G₁) + φ(G₂) + 2|G₁||G₂|·avgCrossDist (sampled).
  */
object ParA {

  final case class Config(crossPairSample: Int = 6, phiPairSample: Int = 32,
                          measure: SetOps.Measure = SetOps.Jaccard, seed: Long = 61)

  def partition(db: collection.IndexedSeq[Array[Int]], nGroups: Int,
                cfg: Config = Config()): Grouping = {
    val n = db.length
    val rnd = new Random(cfg.seed)
    val groups = ArrayBuffer.tabulate(n)(i => ArrayBuffer(i))
    // cached sampled φ per group, refreshed on merge
    val phi = ArrayBuffer.fill(n)(0.0)

    while (groups.length > nGroups) {
      // smallest group (random tie-break)
      val minSize = groups.iterator.map(_.length).min
      val smallest = groups.indices.filter(groups(_).length == minSize)
      val g1 = smallest(rnd.nextInt(smallest.length))
      var bestG2 = -1
      var bestPhi = Double.MaxValue
      for (g2 <- groups.indices if g2 != g1) {
        val cross = DistSample.avgCrossDist(db, groups(g1), groups(g2),
          cfg.crossPairSample, cfg.measure, rnd)
        val merged = phi(g1) + phi(g2) + 2.0 * groups(g1).length * groups(g2).length * cross
        if (merged < bestPhi) { bestPhi = merged; bestG2 = g2 }
      }
      groups(g1) ++= groups(bestG2)
      phi(g1) = bestPhi
      // swap-remove bestG2
      val last = groups.length - 1
      groups(bestG2) = groups(last)
      phi(bestG2) = phi(last)
      groups.remove(last)
      phi.remove(last)
    }

    val assignment = new Array[Int](n)
    for (g <- groups.indices; sid <- groups(g)) assignment(sid) = g
    new Grouping(assignment, groups.length)
  }
}
