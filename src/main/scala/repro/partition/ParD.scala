package repro.partition

import repro.core.{Grouping, SetOps}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** PAR-D — divisive clustering (§4.3.3): start from one all-encompassing
  * group; repeatedly pick the group with the largest (sampled) φ, seed a
  * new group with a random member (the paper's simplification of S*), and
  * move over every other member that reduces the GPO.
  */
object ParD {

  final case class Config(memberSample: Int = 12, phiPairSample: Int = 64,
                          measure: SetOps.Measure = SetOps.Jaccard, seed: Long = 59)

  def partition(db: collection.IndexedSeq[Array[Int]], nGroups: Int,
                cfg: Config = Config()): Grouping = {
    val n = db.length
    val rnd = new Random(cfg.seed)
    val groups = ArrayBuffer(ArrayBuffer.from(0 until n))

    while (groups.length < nGroups && groups.exists(_.length > 1)) {
      // group with maximal sampled φ
      var bestG = -1
      var bestPhi = -1.0
      for (g <- groups.indices if groups(g).length > 1) {
        val phi = DistSample.phiSampled(db, groups(g), cfg.phiPairSample, cfg.measure, rnd)
        if (phi > bestPhi) { bestPhi = phi; bestG = g }
      }
      val src = groups(bestG)
      val seedPos = rnd.nextInt(src.length)
      val seedSid = src(seedPos)
      src.remove(seedPos)
      val fresh = ArrayBuffer(seedSid)
      // single pass over remaining members, moving those that reduce GPO
      var i = 0
      while (i < src.length) {
        val sid = src(i)
        val stayCost = (src.length - 1) *
          DistSample.avgDistTo(db, sid, src, cfg.memberSample, cfg.measure, rnd)
        val moveCost = fresh.length *
          DistSample.avgDistTo(db, sid, fresh, cfg.memberSample, cfg.measure, rnd)
        if (moveCost < stayCost && src.length > 1) {
          src.remove(i)
          fresh += sid
          // do not advance i: a new element swapped into position i
        } else i += 1
      }
      groups += fresh
    }

    val assignment = new Array[Int](n)
    for (g <- groups.indices; sid <- groups(g)) assignment(sid) = g
    new Grouping(assignment, groups.length)
  }
}
